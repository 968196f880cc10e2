package main

// The traced run. It measures the workload once on the traced code path
// with every seam and the profiler off (the reference for
// trace.overhead), then again with every seam the program offers
// switched on: bench.Config.Span around each compute stage, a wrapped
// bench.Config.Machine timing machine construction, the serve Fault
// seam counting stage computes, ?spans=1 on daemon requests and a CPU
// profile attributed by package. Last it replays a bounded set of the
// workload's distinct cells through each layer's public functions, one
// call at a time. Spans stay in memory and are written out when the run
// ends.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"hsmcc/internal/sccsim"
)

// spanRec is one recorded span. Spans of one op share Op; Parent is the
// enclosing span's ID (0 for an op's root).
type spanRec struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// spanDir is where a traced run writes its spans, relative to the
// checkout root the benchmark runs in.
const spanDir = ".bench_build/spans"

// maxSpans bounds the in-memory span store; aggregates keep counting
// beyond it.
const maxSpans = 1 << 18

// tracer collects the traced phase's spans and counters. Safe for
// concurrent use.
type tracer struct {
	// off selects the traced code path with every seam switched off:
	// the reference phase trace.overhead compares against.
	off    bool
	t0     time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []spanRec
	stageNs map[string]int64
	stageN  map[string]int64

	machines  atomic.Int64
	machineNs atomic.Int64
	// computes counts compute stages entered (the Span or Fault seam).
	computes atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stageNs: map[string]int64{}, stageN: map[string]int64{}}
}

// on reports whether t records spans and counters.
func (t *tracer) on() bool { return t != nil && !t.off }

// record stores one finished span and adds it to the stage totals.
func (t *tracer) record(s spanRec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
	t.stageNs[s.Name] += s.DurUs * 1000
	t.stageN[s.Name]++
}

// opSpans returns a bench.Config.Span hook for op: each stage span is
// parented to the innermost stage still open in that op, under one root
// span the returned end func closes. An op runs on one goroutine, so
// the open-span stack needs no lock.
func (t *tracer) opSpans(op int) (span func(stage string) func(), end func()) {
	if t.off {
		return nil, func() {}
	}
	root := spanRec{ID: t.nextID.Add(1), Op: op, Name: "op", StartUs: time.Since(t.t0).Microseconds()}
	stack := []int64{root.ID}
	span = func(stage string) func() {
		t.computes.Add(1)
		s := spanRec{ID: t.nextID.Add(1), Parent: stack[len(stack)-1], Op: op, Name: stage,
			StartUs: time.Since(t.t0).Microseconds()}
		stack = append(stack, s.ID)
		start := time.Now()
		return func() {
			s.DurUs = time.Since(start).Microseconds()
			for i := len(stack) - 1; i > 0; i-- {
				if stack[i] == s.ID {
					stack = append(stack[:i], stack[i+1:]...)
					break
				}
			}
			t.record(s)
		}
	}
	end = func() {
		root.DurUs = time.Since(t.t0).Microseconds() - root.StartUs
		t.record(root)
	}
	return span, end
}

// machine wraps machine construction for cfg with a timer.
func (t *tracer) machine(cfg sccsim.Config) func() *sccsim.Machine {
	if t.off {
		return func() *sccsim.Machine { return sccsim.MustNew(cfg) }
	}
	return func() *sccsim.Machine {
		start := time.Now()
		m := sccsim.MustNew(cfg)
		t.machineNs.Add(int64(time.Since(start)))
		t.machines.Add(1)
		return m
	}
}

// stageMsPerOp is the host time spent in a stage span per op.
func (t *tracer) stageMsPerOp(stage string, ops int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.stageNs[stage]) / 1e6 / float64(ops)
}

// stageCount is how many spans a stage recorded.
func (t *tracer) stageCount(stage string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stageN[stage]
}

// writeSpans writes the span store as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer names every per-layer metric with its unit. Every time among
// them is measured on every workload; serve.shed, a daemon count, is 0
// on the others.
var perLayer = []struct{ name, unit string }{
	{"cc.lex_ms", "ms"}, {"cc.parse_ms", "ms"}, {"cc.sema_ms", "ms"}, {"cc.parses", "count/op"},
	{"analysis.ms", "ms"}, {"analysis.shared_vars", "count"},
	{"partition.ms", "ms"}, {"partition.onchip_bytes", "B"},
	{"translate.ms", "ms"}, {"printer.ms", "ms"},
	{"interp.compile_ms", "ms"}, {"interp.compiles", "count/op"},
	{"sccsim.new_ms", "ms"}, {"sccsim.machines", "count/op"},
	{"pthreadrt.run_ms", "ms"}, {"rcce.run_ms", "ms"}, {"pthreadrt.switches", "count"},
	{"sccsim.accesses", "count"}, {"sim.ns_per_access", "ns"},
	{"cpu.interp_share", "ratio"}, {"cpu.sccsim_share", "ratio"}, {"cpu.cc_share", "ratio"}, {"cpu.gc_share", "ratio"},
	{"sccsim.mpb_share", "ratio"}, {"sccsim.l1_hit_ratio", "ratio"}, {"sccsim.l2_hit_ratio", "ratio"},
	{"trace.sim_utilization", "ratio"}, {"trace.sim_stall_share", "ratio"},
	{"profile.ms", "ms"}, {"conformance.gen_ms", "ms"},
	{"bench.cache_hit_ratio", "ratio"}, {"bench.cache_evictions", "count"}, {"bench.computes", "count/op"},
	{"serve.shed", "count"}, {"trace.overhead", "op/s"},
}

// servePerLayer are the daemon's request-path timings. Only daemon-mix
// has them, so they are printed on comment lines rather than in the
// result, where they would read a constant 0 on the other workloads.
var servePerLayer = []struct{ name, unit string }{
	{"serve.hot_p50_ms", "ms"}, {"serve.cold_p50_ms", "ms"}, {"serve.decode_ms", "ms"},
	{"serve.admission_wait_ms", "ms"}, {"serve.compute_ms", "ms"},
}

// runTraced measures the reference phase, then the traced phase, then
// replays layer by layer. The two phases run the same code, so
// trace.overhead is the cost of the seams and the profiler alone.
func runTraced(w *workload, seed int64, seconds float64, out io.Writer) (*report, error) {
	inst, err := w.setup(seed, &tracer{off: true})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	u := measure(w, inst, seconds)
	ocU, err := inst.finish(u)
	inst.close()
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	tinst, err := w.setup(seed, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer tinst.close()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	t := measure(w, tinst, seconds)
	pprof.StopCPUProfile()
	m := map[string]float64{}
	tinst.layerMetrics(m, t, tr)
	ocT, err := tinst.finish(t)
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for k, v := range shares {
		m[k] = v
	}
	ops := len(t.results)
	rp, err := replay(tinst.replayCells())
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	rp.fill(m, tr, ops)
	m["trace.overhead"] = u.opsPerS() - t.opsPerS()

	both := &phase{results: append(append([]opResult(nil), u.results...), t.results...)}
	oc := &outcome{failed: ocU.failed + ocT.failed + rp.mismatches, digest: ocU.digest, speedups: ocU.speedups}
	if ocT.digest != ocU.digest {
		oc.failed++
		oc.notes = append(oc.notes, fmt.Sprintf("traced digest %s differs from the reference phase's %s", ocT.digest, ocU.digest))
	}
	oc.notes = append(oc.notes, ocU.notes...)
	oc.notes = append(oc.notes, ocT.notes...)
	oc.notes = append(oc.notes, rp.notes...)
	rep := checked(w, both, oc, out)
	fmt.Fprintf(out, "# traced phase: %d ops in %.3f s; replayed %d cells; %d spans\n",
		ops, t.elapsedS, rp.cells, len(tr.spans))
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.writeSpans(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "# spans written to %s\n", path)
	for _, l := range servePerLayer {
		if v, ok := m[l.name]; ok {
			fmt.Fprintf(out, "# %-24s %.6g %s\n", l.name, v, l.unit)
		}
	}
	rep.Metrics = map[string]metric{}
	for _, l := range perLayer {
		rep.Metrics[l.name] = metric{m[l.name], l.unit}
	}
	return rep, nil
}
