package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"hsmcc/internal/bench"
	"hsmcc/internal/conformance"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
)

const (
	// confPool is how many seeded kernels a run generates; ops cycle
	// through them.
	confPool = 1024
	// confRefKernels is the size of the reference set: generator seeds
	// 0..confRefKernels-1, the same for every benchmark seed, whose
	// every cell is digested and enters sim_speedup_geomean.
	confRefKernels = 16
)

// confKernels runs one worker, for the reason corpusSweep does.
var confKernels = &workload{
	name:    "conf-kernels",
	minOps:  100,
	passLen: 1,
	workers: 1,
	setup:   setupConf,
}

// kernelSeed maps the benchmark seed and a kernel index to the
// generator seed, so different benchmark seeds draw disjoint kernels.
func kernelSeed(seed int64, i int) int64 { return seed*1_000_000 + int64(i) }

type confInst struct {
	seed   int64
	engine *conformance.Engine
	specs  []*conformance.Spec
	tr     *tracer
	// base is the harness template the conformance engine derives its
	// cells from: the paper's machine, fingerprinted once.
	base bench.Config

	mu    sync.Mutex
	tally cacheTally
	// refs is the reference set; refCells holds its cells once finish
	// ran.
	refs     []*conformance.Spec
	refCells [][]kernelCell
}

func setupConf(seed int64, tr *tracer) (instance, error) {
	ci := &confInst{seed: seed, engine: conformance.NewEngine(), tr: tr,
		base: bench.DefaultConfig().PrecomputeMachineEnv()}
	for i := 0; i < confPool; i++ {
		ci.specs = append(ci.specs, conformance.SpecForSeed(kernelSeed(seed, i), ci.engine.Gen))
	}
	for i := 0; i < confRefKernels; i++ {
		ci.refs = append(ci.refs, conformance.SpecForSeed(int64(i), ci.engine.Gen))
	}
	// Warm the process on the first reference kernel.
	if div := ci.engine.Check(ci.refs[0]); div != nil {
		return nil, fmt.Errorf("warm-up kernel diverged: %s", div)
	}
	return ci, nil
}

func (ci *confInst) op(i int) opResult {
	start := time.Now()
	if ci.tr == nil {
		div := ci.engine.Check(ci.specs[i%confPool])
		r := opResult{ms: float64(time.Since(start)) / 1e6}
		if div != nil {
			r.failed, r.why = true, div.String()
		}
		return r
	}
	// Traced, or its seams-off reference: walk the matrix through the
	// harness.
	spec := ci.specs[i%confPool]
	span, end := ci.tr.opSpans(i)
	cache := bench.NewCache()
	cells, err := ci.kernelCells(spec.Seed, ci.sources(spec), cache, ci.tr, span)
	end()
	ci.mu.Lock()
	ci.tally.add(cache.Stats())
	ci.mu.Unlock()
	r := opResult{ms: float64(time.Since(start)) / 1e6}
	if err != nil {
		r.failed, r.why = true, err.Error()
	}
	for _, c := range cells {
		if !c.match && !r.failed {
			r.failed, r.why = true, fmt.Sprintf("seed=%d %s: RCCE output differs from the baseline", spec.Seed, c.key())
		}
	}
	return r
}

// factors is the matrix's oversubscription axis ([1] when unset).
func factors(m conformance.Matrix) []int {
	if len(m.Oversub) == 0 {
		return []int{1}
	}
	return m.Oversub
}

// sources emits the kernel once per UE count of the matrix.
func (ci *confInst) sources(spec *conformance.Spec) map[int]string {
	srcs := map[int]string{}
	for _, cores := range ci.engine.Matrix.Cores {
		for _, f := range factors(ci.engine.Matrix) {
			srcs[cores*f] = spec.Source(cores * f)
		}
	}
	return srcs
}

// kernelCell is the outcome of one matrix cell.
type kernelCell struct {
	cores, factor, budget int
	policy                string
	basePs, rccePs        uint64
	match                 bool
	base, conv            sccsim.CoreStats
}

func (c kernelCell) key() string {
	return fmt.Sprintf("cores=%d oversub=%d policy=%s budget=%d", c.cores, c.factor, c.policy, c.budget)
}

// oversubscribed maps cores×factor UEs round-robin onto cores, the
// runtime's many-to-one mode the conformance matrix uses.
func oversubscribed(cores, factor int) func(int) rcce.Options {
	return func(n int) rcce.Options {
		o := rcce.DefaultOptions(n)
		o.Cores = make([]int, cores*factor)
		for i := range o.Cores {
			o.Cores[i] = i % cores
		}
		o.AllowOversubscribe = true
		return o
	}
}

// kernelWorkload wraps fixed kernel source as a bench workload, named as
// the conformance engine names it.
func kernelWorkload(seed int64, src string) bench.Workload {
	return bench.Workload{Key: fmt.Sprintf("gen%d", seed), Class: "conformance",
		Source: func(int, float64) string { return src }}
}

// cellCfg is the harness configuration of one matrix cell.
// A non-nil tr builds the machines, timing them when it is on.
func (ci *confInst) cellCfg(cores, factor, budget int, cache *bench.Cache, tr *tracer) bench.Config {
	cfg := ci.base
	cfg.Threads = cores * factor
	cfg.MPBCapacity = budget
	cfg.Cache = cache
	if factor > 1 {
		cfg.RCCE = oversubscribed(cores, factor)
	}
	if tr != nil {
		cfg.Machine = tr.machine(sccsim.DefaultConfig())
	}
	return cfg
}

// kernelCells walks the matrix as conformance.Engine.Check does — one
// cache per kernel, one baseline per (cores, oversub) — and returns
// every cell's simulated statistics. tr and span are the traced
// path's seams (nil otherwise).
func (ci *confInst) kernelCells(seed int64, srcs map[int]string, cache *bench.Cache, tr *tracer, span func(string) func()) ([]kernelCell, error) {
	m := ci.engine.Matrix
	var out []kernelCell
	for _, cores := range m.Cores {
		for _, f := range factors(m) {
			w := kernelWorkload(seed, srcs[cores*f])
			cfg := ci.cellCfg(cores, f, 0, cache, tr)
			cfg.Span = span
			base, err := bench.RunBaseline(w, cfg)
			if err != nil {
				return out, fmt.Errorf("seed=%d cores=%d oversub=%d baseline: %w", seed, cores, f, err)
			}
			for _, policy := range m.Policies {
				pol, err := bench.ParsePolicy(policy)
				if err != nil {
					return out, err
				}
				for _, budget := range m.Budgets {
					c := kernelCell{cores: cores, factor: f, budget: budget, policy: policy}
					cfg.MPBCapacity = budget
					conv, err := bench.RunRCCE(w, cfg, pol)
					if err != nil {
						return out, fmt.Errorf("seed=%d %s: %w", seed, c.key(), err)
					}
					c.basePs, c.rccePs = uint64(base.Makespan), uint64(conv.Makespan)
					c.match = bench.SameResults(base.Output, conv.Output)
					c.base, c.conv = base.Stats, conv.Stats
					out = append(out, c)
				}
			}
		}
	}
	return out, nil
}

// finish runs the reference kernels through the harness (outside the
// timed phase) to digest every simulated statistic of their cells.
func (ci *confInst) finish(ph *phase) (*outcome, error) {
	cells := make([][]kernelCell, confRefKernels)
	errs := make([]error, confRefKernels)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for k := 0; k < confRefKernels; k++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			spec := ci.refs[k]
			cells[k], errs[k] = ci.kernelCells(spec.Seed, ci.sources(spec), bench.NewCache(), nil, nil)
		}()
	}
	wg.Wait()
	oc := &outcome{}
	var lines []string
	for k, cs := range cells {
		if errs[k] != nil {
			oc.failed++
			oc.notes = append(oc.notes, errs[k].Error())
		}
		for _, c := range cs {
			lines = append(lines, fmt.Sprintf("%d %s base_ps=%d rcce_ps=%d match=%v base=%+v rcce=%+v",
				ci.refs[k].Seed, c.key(), c.basePs, c.rccePs, c.match, c.base, c.conv))
			if !c.match {
				oc.failed++
			}
			oc.speedups = append(oc.speedups, float64(c.basePs)/float64(c.rccePs))
		}
	}
	oc.digest = digest(lines)
	ci.mu.Lock()
	ci.refCells = cells
	ci.mu.Unlock()
	return oc, nil
}

// replayCells takes one cell from each reference kernel,
// stepping through the matrix so every policy, budget and oversub
// factor appears.
func (ci *confInst) replayCells() []replayCell {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	var out []replayCell
	for k := 0; k < len(ci.refCells) && len(out) < maxReplayCells; k++ {
		cs := ci.refCells[k]
		if len(cs) == 0 {
			continue
		}
		c := cs[(k*5)%len(cs)]
		spec := ci.refs[k]
		out = append(out, replayCell{
			w:      kernelWorkload(spec.Seed, spec.Source(c.cores*c.factor)),
			cfg:    ci.cellCfg(c.cores, c.factor, c.budget, nil, nil),
			policy: c.policy,
			rccePs: c.rccePs,
		})
	}
	return out
}

func (ci *confInst) layerMetrics(m map[string]float64, _ *phase, _ *tracer) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	ci.tally.fill(m)
}

func (ci *confInst) close() {}
