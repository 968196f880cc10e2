package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hsmcc/internal/bench"
	"hsmcc/internal/serve"
	"hsmcc/internal/serve/loadtest"
	"hsmcc/internal/synth"
)

const (
	// daemonPlanLen is the seeded request sequence's length; ops wrap
	// around it (a run sends a few thousand).
	daemonPlanLen = 1 << 14
	// daemonHotScale is the hot pool's problem-size multiplier, the
	// default scale of loadtest's hot pool.
	daemonHotScale = 0.05
	// daemonCacheBytes bounds the server's cache. The repository records
	// no daemon traffic to size it from, so it is chosen: the hot pool
	// fits, and the cold stream overflows it within the first seconds of
	// a run, so fills and evictions happen in every run.
	daemonCacheBytes = 1 << 20
	// daemonMinOps is the request count every run reaches.
	daemonMinOps = 1000
)

// The repository records no daemon traffic, so the mix takes its shares
// from loadtest.Generate's weights for the four kinds it sends (hot
// simulate 0.40, synth simulate 0.15, translate 0.08, compile 0.15),
// renormalised over their sum: about half the requests are hot.
// Generate's grid, batch, doomed and malformed kinds are left out.
// Unlike Generate's, every non-hot request names a synth key no earlier
// request used.
const (
	weightHot       = 0.40
	weightSimulate  = 0.15
	weightTranslate = 0.08
	weightCompile   = 0.15
	weightSum       = weightHot + weightSimulate + weightTranslate + weightCompile
)

var daemonMix = &workload{
	name:    "daemon-mix",
	minOps:  daemonMinOps,
	passLen: 1,
	setup:   setupDaemon,
}

// planned is one request of the seeded sequence.
type planned struct {
	path string
	body []byte
	cold bool
	req  serve.SimRequest
}

// key identifies a request for the oracle: path and body.
func (p planned) key() string { return p.path + "\x00" + string(p.body) }

// hotPool is the small corpus pool the hot share repeats.
func hotPool() []serve.SimRequest {
	return []serve.SimRequest{
		{Workload: "pi", Cores: 4, Scale: daemonHotScale, Policy: "size"},
		{Workload: "dot", Cores: 2, Scale: daemonHotScale, Policy: "offchip"},
		{Workload: "primes", Cores: 4, Scale: daemonHotScale, Policy: "size"},
		{Workload: "sum35", Cores: 2, Scale: daemonHotScale, Policy: "freq"},
	}
}

// daemonPlan builds the seeded request sequence: hot simulates on the
// pool, and cold simulate, translate and compile requests on synth keys
// no earlier request used.
func daemonPlan(seed int64) ([]planned, error) {
	rng := rand.New(rand.NewSource(seed))
	hot := hotPool()
	used := map[string]bool{}
	next := 0
	freshKey := func() string {
		for {
			k := synth.ParamsForSeed(seed*1_000_000 + int64(next)).Key()
			next++
			if !used[k] {
				used[k] = true
				return k
			}
		}
	}
	plan := make([]planned, 0, daemonPlanLen)
	for len(plan) < daemonPlanLen {
		p := planned{path: "/v1/simulate"}
		roll := rng.Float64() * weightSum
		if roll < weightHot {
			p.req = hot[rng.Intn(len(hot))]
		} else {
			p.cold = true
			p.req = serve.SimRequest{Workload: freshKey(), Cores: 2 + 2*rng.Intn(2), Scale: 1.0}
			switch roll -= weightHot; {
			case roll < weightSimulate:
				p.req.Policy = []string{"size", "offchip", "profiled"}[rng.Intn(3)]
				if p.req.Policy == "profiled" {
					p.req.MPBBudget = 512
				}
			case roll < weightSimulate+weightTranslate:
				p.path = "/v1/translate"
				p.req.Policy = []string{"size", "offchip"}[rng.Intn(2)]
			default:
				p.path = "/v1/compile"
			}
		}
		b, err := json.Marshal(p.req)
		if err != nil {
			return nil, err
		}
		p.body = b
		plan = append(plan, p)
	}
	return plan, nil
}

// oracleMemo holds expected bodies across the instances of one process,
// keyed by path and request body.
var oracleMemo sync.Map

// resolveOracles computes the expected body of every request in reqs
// with loadtest's in-process oracle, split across nproc goroutines.
// Unless fresh, bodies already in oracleMemo are reused.
func resolveOracles(reqs []planned, fresh bool) (map[string][]byte, error) {
	out := map[string][]byte{}
	var todo []loadtest.Request
	for _, p := range reqs {
		k := p.key()
		if b, ok := oracleMemo.Load(k); ok && !fresh {
			out[k] = b.([]byte)
		} else if _, dup := out[k]; !dup {
			out[k] = nil
			todo = append(todo, loadtest.Request{Path: p.path, Body: p.body, ExpectStatus: 200})
		}
	}
	n := runtime.NumCPU()
	plans := make([]loadtest.Plan, n)
	for i, r := range todo {
		plans[i%n].Requests = append(plans[i%n].Requests, r)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = plans[i].Resolve()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, p := range plans {
		for _, r := range p.Requests {
			k := planned{path: r.Path, body: r.Body}.key()
			out[k] = r.ExpectBody
			oracleMemo.Store(k, r.ExpectBody)
		}
	}
	return out, nil
}

type daemonInst struct {
	plan   []planned
	tr     *tracer
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	// hotReqs is the hot pool; hot holds its expected bodies.
	hotReqs []planned
	hot     map[string][]byte

	mu sync.Mutex
	// cold holds the body each cold op received, by op index.
	cold map[int][]byte
	// computeNs sums the compute spans directly under each request.
	computeNs atomic.Int64
}

func setupDaemon(seed int64, tr *tracer) (instance, error) {
	if !tr.on() {
		// The daemon has one code path; seams off is the untraced run.
		tr = nil
	}
	plan, err := daemonPlan(seed)
	if err != nil {
		return nil, err
	}
	var hotReqs []planned
	for _, r := range hotPool() {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		hotReqs = append(hotReqs, planned{path: "/v1/simulate", body: b, req: r})
	}
	// Every set-up pays for its hot bodies, so setup_s covers the oracle.
	hot, err := resolveOracles(hotReqs, true)
	if err != nil {
		return nil, fmt.Errorf("hot oracle: %w", err)
	}
	// The Fault seam counts stage computes once the warm-up is over.
	var counting atomic.Pointer[tracer]
	opts := serve.Options{CacheBytes: daemonCacheBytes}
	if tr != nil {
		opts.Fault = func(string) error {
			if t := counting.Load(); t != nil {
				t.computes.Add(1)
			}
			return nil
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	di := &daemonInst{
		plan: plan, srv: serve.New(opts), served: make(chan struct{}),
		base: "http://" + ln.Addr().String(), hotReqs: hotReqs, hot: hot, cold: map[int][]byte{},
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: runtime.NumCPU(), DisableCompression: true}},
	}
	di.hs = &http.Server{Handler: di.srv.Handler()}
	go func() {
		defer close(di.served)
		di.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	// Warm the hot pool into the server's cache.
	for _, p := range hotReqs {
		if r := di.send(-1, p); r.failed {
			di.close()
			return nil, fmt.Errorf("warm-up: %s", r.why)
		}
	}
	di.tr = tr
	counting.Store(tr)
	return di, nil
}

func (di *daemonInst) op(i int) opResult {
	r := di.send(i, di.plan[i%len(di.plan)])
	if di.plan[i%len(di.plan)].cold {
		r.class = "cold"
	} else {
		r.class = "hot"
	}
	return r
}

// send posts one request over the keep-alive connection pool and checks
// what can be checked at once: status, request id, hot bodies.
func (di *daemonInst) send(i int, p planned) opResult {
	url := di.base + p.path
	if di.tr != nil {
		url += "?spans=1"
	}
	start := time.Now()
	resp, err := di.client.Post(url, "application/json", bytes.NewReader(p.body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r := opResult{ms: float64(time.Since(start)) / 1e6}
	fail := func(format string, args ...any) opResult {
		r.failed, r.why = true, fmt.Sprintf("%s %s: ", p.path, p.body)+fmt.Sprintf(format, args...)
		return r
	}
	if err != nil {
		return fail("%v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fail("status %d: %s", resp.StatusCode, body)
	}
	if rid := resp.Header.Get("X-Request-Id"); !loadtest.RequestIDPattern.MatchString(rid) {
		return fail("malformed X-Request-Id %q", rid)
	}
	if di.tr != nil {
		if body, err = di.stripSpans(i, p.path, body); err != nil {
			return fail("%v", err)
		}
	}
	if !p.cold {
		if want := di.hot[p.key()]; !bytes.Equal(body, want) {
			return fail("body differs from the oracle:\n got %s\nwant %s", body, want)
		}
		return r
	}
	di.mu.Lock()
	di.cold[i] = body
	di.mu.Unlock()
	return r
}

// stripSpans takes the ?spans=1 tree out of a response, records it, and
// re-encodes the body as the plain request would have received it.
func (di *daemonInst) stripSpans(op int, path string, body []byte) ([]byte, error) {
	var spans **serve.Span
	var v any
	switch path {
	case "/v1/compile":
		r := &serve.CompileResponse{}
		v, spans = r, &r.Spans
	case "/v1/translate":
		r := &serve.TranslateResponse{}
		v, spans = r, &r.Spans
	default:
		r := &serve.SimulateResponse{}
		v, spans = r, &r.Spans
	}
	if err := json.Unmarshal(body, v); err != nil {
		return nil, err
	}
	if *spans == nil {
		return nil, fmt.Errorf("no spans in a ?spans=1 response")
	}
	di.recordSpans(op, *spans, 0)
	*spans = nil
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// recordSpans copies a server span tree into the tracer.
func (di *daemonInst) recordSpans(op int, sp *serve.Span, parent int64) {
	id := di.tr.nextID.Add(1)
	di.tr.record(spanRec{ID: id, Parent: parent, Op: op, Name: sp.Name, StartUs: sp.StartUs, DurUs: sp.DurUs})
	for _, c := range sp.Children {
		if parent == 0 && c.Name != "decode" && c.Name != "admission" {
			di.computeNs.Add(c.DurUs * 1000)
		}
		di.recordSpans(op, c, id)
	}
}

// finish checks every cold body against the oracle, then digests the
// expected bodies of the first daemonMinOps requests, which every run
// sends.
func (di *daemonInst) finish(ph *phase) (*outcome, error) {
	di.mu.Lock()
	defer di.mu.Unlock()
	need := append([]planned(nil), di.plan[:daemonMinOps]...)
	for i := range di.cold {
		need = append(need, di.plan[i%len(di.plan)])
	}
	want, err := resolveOracles(need, false)
	if err != nil {
		return nil, fmt.Errorf("cold oracle: %w", err)
	}
	oc := &outcome{}
	for i, got := range di.cold {
		p := di.plan[i%len(di.plan)]
		if exp := want[p.key()]; !bytes.Equal(got, exp) {
			oc.failed++
			if len(oc.notes) < 3 {
				oc.notes = append(oc.notes, fmt.Sprintf("op %d %s %s: body differs from the oracle:\n got %s\nwant %s", i, p.path, p.body, got, exp))
			}
		}
	}
	var lines []string
	for _, p := range di.plan[:daemonMinOps] {
		lines = append(lines, string(want[p.key()]))
	}
	// The speedup geomean is over the hot pool, which every seed shares.
	for _, p := range di.hotReqs {
		var sr serve.SimulateResponse
		if err := json.Unmarshal(di.hot[p.key()], &sr); err != nil {
			return nil, err
		}
		oc.speedups = append(oc.speedups, float64(sr.BaselinePs)/float64(sr.RCCEPs))
	}
	oc.digest = digest(lines)
	return oc, nil
}

// replayCells is the hot pool plus the first cold simulates, each with
// the makespan its oracle body reports.
func (di *daemonInst) replayCells() []replayCell {
	var out []replayCell
	for _, p := range append(append([]planned(nil), di.hotReqs...), di.plan...) {
		if len(out) >= maxReplayCells {
			break
		}
		w, ok := bench.ByKey(p.req.Workload)
		if !ok || p.path != "/v1/simulate" {
			continue
		}
		c := replayCell{w: w, cfg: bench.DefaultConfig(), policy: p.req.Policy}
		c.cfg.Threads, c.cfg.Scale, c.cfg.MPBCapacity = p.req.Cores, p.req.Scale, p.req.MPBBudget
		if b, ok := oracleMemo.Load(p.key()); ok {
			var sr serve.SimulateResponse
			if json.Unmarshal(b.([]byte), &sr) == nil {
				c.rccePs = sr.RCCEPs
			}
		}
		out = append(out, c)
	}
	return out
}

func (di *daemonInst) layerMetrics(m map[string]float64, ph *phase, tr *tracer) {
	ops := len(ph.results)
	m["serve.hot_p50_ms"] = median(ph.latencies("hot"))
	m["serve.cold_p50_ms"] = median(ph.latencies("cold"))
	m["serve.decode_ms"] = tr.stageMsPerOp("decode", ops)
	m["serve.admission_wait_ms"] = tr.stageMsPerOp("admission", ops)
	m["serve.compute_ms"] = float64(di.computeNs.Load()) / 1e6 / float64(ops)
	m["serve.shed"] = float64(di.srv.Overload().Shed)
	s := di.srv.Cache().Stats()
	m["bench.cache_hit_ratio"] = s.HitRate()
	m["bench.cache_evictions"] = float64(s.Evictions)
}

// close shuts the server down and waits for its serve loop to return.
func (di *daemonInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	di.hs.Shutdown(ctx) // a timeout leaves nothing to clean up: Close follows
	di.hs.Close()
	<-di.served
	di.client.CloseIdleConnections()
}
