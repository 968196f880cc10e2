package serve

// Request decoding and admission: every simulation-bearing endpoint
// funnels through SimRequest -> resolve, so the limit checks (cores,
// scale, synthetic op budget) and the synth-key parser run in one place
// — the surface FuzzServeRequest hammers.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"hsmcc/internal/bench"
	"hsmcc/internal/partition"
	"hsmcc/internal/synth"
)

// maxBodyBytes bounds any request body the daemon will read.
const maxBodyBytes = 1 << 20

// SimRequest is the common request shape of /v1/compile, /v1/translate
// and /v1/simulate (and each /v1/batch item).
type SimRequest struct {
	// Workload is a corpus key (pi, stream, ...) or a canonical synth:
	// key — the PR-6 key-as-digest design carries into the serving
	// cache unchanged.
	Workload string `json:"workload"`
	// Cores is the thread/UE count (default 4).
	Cores int `json:"cores,omitempty"`
	// Scale is the problem-size multiplier (default 1.0).
	Scale float64 `json:"scale,omitempty"`
	// Policy is the Stage 4 placement policy: offchip, size, freq or
	// profiled (default size). Ignored by /v1/compile.
	Policy string `json:"policy,omitempty"`
	// MPBBudget is the Stage 4 on-chip byte budget (0 = full MPB).
	MPBBudget int `json:"mpb_budget,omitempty"`
	// DeadlineMs is the request's wall-clock budget in milliseconds
	// (0 = the server default; clamped to the server maximum).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// simCall is a resolved, admitted request: everything a handler needs
// to run simulations.
type simCall struct {
	req      SimRequest
	workload bench.Workload
	policy   partition.Policy
	// spans/trace are the ?spans=1 / ?trace=1 opt-ins: both add
	// non-deterministic (spans) or bulky (trace) material to the
	// response envelope, so the default — byte-identical responses —
	// requires asking.
	spans bool
	trace bool
}

// decodeJSON reads one JSON document into v, rejecting trailing data.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadRequest("bad request body: %v", err)
	}
	if dec.More() {
		return errBadRequest("bad request body: trailing data after JSON document")
	}
	return nil
}

// resolve validates req against the server limits and resolves its
// workload and policy. It fills defaults in place (so the
// request echoed in responses names the effective values).
func (s *Server) resolve(req *SimRequest) (*simCall, error) {
	if req.Cores == 0 {
		req.Cores = 4
	}
	if req.Scale == 0 {
		req.Scale = 1.0
	}
	if req.Policy == "" {
		req.Policy = "size"
	}
	if req.Workload == "" {
		return nil, errBadRequest("workload is required")
	}
	if req.Cores < 1 || req.Cores > s.limits.MaxCores {
		return nil, errBadRequest("cores %d out of range [1,%d]", req.Cores, s.limits.MaxCores)
	}
	if req.Scale < 0 || req.Scale > s.limits.MaxScale {
		return nil, errBadRequest("scale %g out of range (0,%g]", req.Scale, s.limits.MaxScale)
	}
	if req.MPBBudget < 0 {
		return nil, errBadRequest("mpb_budget %d is negative (use 0 for the full MPB)", req.MPBBudget)
	}
	if synth.IsKey(req.Workload) {
		p, err := synth.ParseKey(req.Workload)
		if err != nil {
			return nil, errBadRequest("bad synth key: %v", err)
		}
		if ops := p.Scaled(req.Scale).Ops * p.Rounds; ops > s.limits.MaxSynthOps {
			return nil, errBadRequest("synth op budget %d exceeds limit %d", ops, s.limits.MaxSynthOps)
		}
	}
	w, ok := bench.ByKey(req.Workload)
	if !ok {
		return nil, errBadRequest("unknown workload %q", req.Workload)
	}
	policy, err := bench.ParsePolicy(req.Policy)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	return &simCall{req: *req, workload: w, policy: policy}, nil
}

// config derives the per-request bench.Config: the server template
// (shared machine + cache) plus the request's dimensions and the
// context's cancellation.
func (s *Server) config(ctx context.Context, c *simCall) bench.Config {
	cfg := s.baseCfg
	cfg.Threads = c.req.Cores
	cfg.Scale = c.req.Scale
	cfg.MPBCapacity = c.req.MPBBudget
	cfg.Cancel = ctx.Err
	cfg.Fault = s.fault
	// The compute-stage span seam: fires only when a stage actually
	// runs, so cache hits leave no compute span in the request tree.
	// Like Cancel and Fault it is per-request state, never cache
	// identity.
	cfg.Span = spansFrom(ctx).start
	return cfg
}

// deadline resolves a request's effective wall-clock budget.
func (s *Server) deadline(ms int64) time.Duration {
	d := s.limits.DefaultDeadline
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.limits.MaxDeadline {
		d = s.limits.MaxDeadline
	}
	return d
}

// withDeadline attaches the effective deadline to the request context
// and merges in the server's stop context: when CancelInFlight fires
// at the drain deadline, every derived request context cancels, which
// the simulations observe through interp.Sim.Cancel.
func (s *Server) withDeadline(ctx context.Context, ms int64) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(ctx, s.deadline(ms))
	stop := context.AfterFunc(s.stopCtx, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}

// statusOf maps a handler error to its HTTP status: explicit
// httpErrors keep theirs, recovered compute panics are 500 (and
// counted — the cache has already dropped the poisoned entry),
// cancellations are 504 (the request's wall-clock budget ran out
// mid-simulation), everything else is a 500.
func (s *Server) statusOf(err error) (int, string) {
	var he *httpError
	if errors.As(err, &he) {
		return he.status, he.msg
	}
	if bench.IsPanic(err) {
		s.metrics.panicked()
		return http.StatusInternalServerError, err.Error()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, fmt.Sprintf("deadline exceeded: %v", err)
	}
	return http.StatusInternalServerError, err.Error()
}
