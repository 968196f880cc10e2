package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hsmcc/internal/bench"
	"hsmcc/internal/sccsim"
)

// corpusScale is the problem-size multiplier of every corpus-sweep cell.
const corpusScale = 0.25

// corpusPasses is how many whole sweeps every run measures at least.
const corpusPasses = 3

// corpusCell is one grid cell run as its own single-cell grid, so its
// host latency can be timed.
type corpusCell struct {
	grid bench.Grid
	cell bench.Cell
}

// corpusCells is the sweep: the mesh1024 slice first (the longest cell
// starts first), then the whole corpus at 4 and 32 cores under the
// offchip and size policies on scc48.
func corpusCells() []corpusCell {
	mesh := bench.Grid{Name: "corpus-sweep-mesh1024", Workloads: []string{"prodcons"},
		Cores: []int{1024}, Policies: []string{"size"}, Scale: corpusScale, Machine: "mesh1024"}
	scc := bench.Grid{Name: "corpus-sweep", Cores: []int{4, 32},
		Policies: []string{"offchip", "size"}, Scale: corpusScale}
	var out []corpusCell
	cells := scc.Cells()
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].Policy < cells[j].Policy })
	for _, g := range []bench.Grid{mesh, scc} {
		gc := cells
		if g.Machine != "" {
			gc = g.Cells()
		}
		for _, c := range gc {
			one := g
			one.Workloads = []string{c.Workload}
			one.Cores = []int{c.Cores}
			one.Policies = []string{c.Policy}
			out = append(out, corpusCell{grid: one, cell: c})
		}
	}
	return out
}

// corpusSweep runs one worker: with two, each simulation's collector
// and memory traffic contend with the other's on a two-CPU host, and the
// run-to-run spread of the host times widened while tuning.
var corpusSweep = func() *workload {
	n := len(corpusCells())
	return &workload{
		name:    "corpus-sweep",
		minOps:  corpusPasses * n,
		passLen: n,
		workers: 1,
		setup:   setupCorpus,
	}
}()

type corpusInst struct {
	cells []corpusCell
	tr    *tracer

	mu sync.Mutex
	// caches holds the running passes' caches: every pass starts cold.
	// A finished pass's cache is folded into tally and dropped, so the
	// heap does not grow with the number of passes.
	caches  map[int]*bench.Cache
	tally   cacheTally
	results map[int]bench.CellResult
}

func setupCorpus(_ int64, tr *tracer) (instance, error) {
	ci := &corpusInst{cells: corpusCells(), tr: tr,
		caches: map[int]*bench.Cache{}, results: map[int]bench.CellResult{}}
	// Warm the process (heap, page tables) on one small cell.
	warm := bench.Grid{Name: "warm", Workloads: []string{"pi"}, Cores: []int{4},
		Policies: []string{"offchip"}, Scale: corpusScale}
	rep, err := bench.RunGrid(warm, bench.RunOptions{Parallel: 1})
	if err != nil {
		return nil, err
	}
	if r := rep.Results[0]; r.Error != "" || !r.Match {
		return nil, fmt.Errorf("warm-up cell failed: %+v", r)
	}
	return ci, nil
}

func (ci *corpusInst) passCache(pass int) *bench.Cache {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	c, ok := ci.caches[pass]
	if !ok {
		c = bench.NewCache()
		ci.caches[pass] = c
		// Ops of at most the previous pass can still be running.
		for p, old := range ci.caches {
			if p < pass-1 {
				ci.tally.add(old.Stats())
				delete(ci.caches, p)
			}
		}
	}
	return c
}

func (ci *corpusInst) op(i int) opResult {
	n := len(ci.cells)
	cc := ci.cells[i%n]
	cache := ci.passCache(i / n)
	start := time.Now()
	var res bench.CellResult
	var err error
	if ci.tr == nil {
		var rep *bench.Report
		rep, err = bench.RunGrid(cc.grid, bench.RunOptions{Parallel: 1, Cache: cache})
		if err == nil {
			res = rep.Results[0]
		}
	} else {
		res, err = ci.tracedCell(i, cc, cache)
	}
	r := opResult{ms: float64(time.Since(start)) / 1e6}
	if err == nil && res.Error != "" {
		err = fmt.Errorf("%s", res.Error)
	}
	switch {
	case err != nil:
		r.failed, r.why = true, fmt.Sprintf("%s/%d/%s: %v", cc.cell.Workload, cc.cell.Cores, cc.cell.Policy, err)
	case !res.Match:
		r.failed, r.why = true, fmt.Sprintf("%s/%d/%s: RCCE output differs from the baseline", cc.cell.Workload, cc.cell.Cores, cc.cell.Policy)
	}
	ci.mu.Lock()
	ci.results[i] = res
	ci.mu.Unlock()
	return r
}

// cellConfig is the harness configuration RunGrid builds for a cell.
func cellConfig(cc corpusCell, cache *bench.Cache) bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Scale = cc.grid.Scale
	mcfg := sccsim.MustPreset(cc.grid.Machine)
	cfg.Machine = func() *sccsim.Machine { return sccsim.MustNew(mcfg) }
	cfg.Cache = cache
	cfg.Threads = cc.cell.Cores
	cfg.MPBCapacity = cc.cell.MPBBudget
	return cfg.PrecomputeMachineEnv()
}

// tracedCell runs one cell the way RunGrid does, through the harness's
// public stage functions, with the tracer's Span and Machine seams.
func (ci *corpusInst) tracedCell(i int, cc corpusCell, cache *bench.Cache) (bench.CellResult, error) {
	res := bench.CellResult{Cell: cc.cell}
	w, ok := bench.ByKey(cc.cell.Workload)
	if !ok {
		return res, fmt.Errorf("unknown workload %q", cc.cell.Workload)
	}
	pol, err := bench.ParsePolicy(cc.cell.Policy)
	if err != nil {
		return res, err
	}
	cfg := cellConfig(cc, cache)
	cfg.Machine = ci.tr.machine(sccsim.MustPreset(cc.grid.Machine))
	var end func()
	cfg.Span, end = ci.tr.opSpans(i)
	defer end()
	base, err := bench.RunBaseline(w, cfg)
	if err != nil {
		return res, err
	}
	conv, err := bench.RunRCCE(w, cfg, pol)
	if err != nil {
		return res, err
	}
	res.BaselinePs = base.Makespan
	res.RCCEPs = conv.Makespan
	res.Speedup = bench.Speedup(base, conv)
	res.Match = bench.SameResults(base.Output, conv.Output)
	res.MPBAccesses = conv.Stats.MPBAccesses
	res.SharedAccesses = conv.Stats.SharedAccesses
	res.OnChipBytes = conv.OnChipBytes
	res.PlacementDigest = conv.PlacementDigest
	return res, nil
}

// cellLine renders the simulated statistics of a cell result.
func cellLine(r bench.CellResult) string {
	return fmt.Sprintf("%s %d %s %d base_ps=%d rcce_ps=%d match=%v onchip=%d mpb=%d shared=%d placement=%s",
		r.Workload, r.Cores, r.Policy, r.MPBBudget, r.BaselinePs, r.RCCEPs, r.Match,
		r.OnChipBytes, r.MPBAccesses, r.SharedAccesses, r.PlacementDigest)
}

// finish checks that every pass reproduced the first pass exactly and
// digests the first pass.
func (ci *corpusInst) finish(ph *phase) (*outcome, error) {
	n := len(ci.cells)
	ci.mu.Lock()
	defer ci.mu.Unlock()
	oc := &outcome{}
	var lines []string
	for j := 0; j < n; j++ {
		r, ok := ci.results[j]
		if !ok {
			return nil, fmt.Errorf("cell %d never ran", j)
		}
		lines = append(lines, cellLine(r))
		if r.RCCEPs > 0 {
			oc.speedups = append(oc.speedups, float64(r.BaselinePs)/float64(r.RCCEPs))
		}
	}
	for i, r := range ci.results {
		if i >= n && cellLine(r) != lines[i%n] {
			oc.failed++
			if len(oc.notes) < 3 {
				oc.notes = append(oc.notes, fmt.Sprintf("pass %d cell %d differs from pass 0: %s vs %s", i/n, i%n, cellLine(r), lines[i%n]))
			}
		}
	}
	oc.digest = digest(lines)
	return oc, nil
}

// replayCells is every third cell of the first pass, the mesh slice
// included.
func (ci *corpusInst) replayCells() []replayCell {
	var out []replayCell
	for j := 0; j < len(ci.cells); j += 3 {
		cc := ci.cells[j]
		w, ok := bench.ByKey(cc.cell.Workload)
		if !ok {
			continue
		}
		ci.mu.Lock()
		ps := ci.results[j].RCCEPs
		ci.mu.Unlock()
		out = append(out, replayCell{w: w, cfg: cellConfig(cc, nil), policy: cc.cell.Policy, rccePs: ps})
	}
	return out
}

func (ci *corpusInst) layerMetrics(m map[string]float64, _ *phase, _ *tracer) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	t := ci.tally
	for _, c := range ci.caches {
		t.add(c.Stats())
	}
	t.fill(m)
}

// cacheTally sums the lookup and eviction counters of many caches.
type cacheTally struct{ hits, lookups, evictions int64 }

func (t *cacheTally) add(s bench.CacheStats) {
	t.hits += s.Hits
	t.lookups += s.Hits + s.Misses
	t.evictions += s.Evictions
}

func (t cacheTally) fill(m map[string]float64) {
	m["bench.cache_hit_ratio"] = ratio(float64(t.hits), float64(t.lookups))
	m["bench.cache_evictions"] = float64(t.evictions)
}

func (ci *corpusInst) close() {}
