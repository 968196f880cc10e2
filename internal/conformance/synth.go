package conformance

import (
	"strings"
	"sync"

	"hsmcc/internal/synth"
)

// Synthetic-workload conformance: the same differential oracle the spec
// generator runs under, driven by internal/synth's continuous parameter
// vectors instead of the discrete kernel grammar. A synth seed maps to
// a vector (synth.ParamsForSeed), the vector emits one kernel per UE
// count, and the kernel is checked across the engine's full matrix.
// Failures shrink in parameter space — synth.Reductions moves the
// vector toward the trivial corner while the failing cell keeps
// reproducing — which is delta debugging over the memory-behaviour
// plane rather than over AST structure.

// CheckSynth runs the vector's kernel across the whole matrix and
// returns the first divergence (marked as synthetic, carrying the
// vector's canonical key) or nil.
func (e *Engine) CheckSynth(p synth.Params) *Divergence {
	return e.markSynth(p, e.checkMatrix(p.Seed, p.Source, nil))
}

// CheckSynthCell checks the vector at one matrix cell.
func (e *Engine) CheckSynthCell(p synth.Params, cores int, policy string, budget, oversub int) *Divergence {
	ues := cores * max(oversub, 1)
	return e.markSynth(p, e.CheckSource(p.Seed, p.Source(ues), cores, policy, budget, oversub))
}

func (e *Engine) markSynth(p synth.Params, div *Divergence) *Divergence {
	if div != nil {
		div.Synth = true
		div.SynthKey = p.Key()
	}
	return div
}

// ShrinkSynth reduces a failing vector to a minimal reproducer at the
// originally-failing cell: greedy first-improvement over
// synth.Reductions, the parameter-space analogue of the spec shrinker.
func (e *Engine) ShrinkSynth(p synth.Params, div *Divergence) synth.Params {
	return synth.Shrink(p, func(c synth.Params) bool {
		return e.CheckSynthCell(c, div.Cores, div.Policy, div.Budget, div.Oversub) != nil
	})
}

// SynthFailure is one failed synthetic kernel with its shrunken
// reproducer.
type SynthFailure struct {
	Seed      int64        `json:"seed"`
	Params    synth.Params `json:"params"`
	Div       *Divergence  `json:"divergence"`
	Minimized synth.Params `json:"minimized"`
	MinSource string       `json:"min_source,omitempty"`
}

// SynthReport summarises a synthetic conformance run.
type SynthReport struct {
	BaseSeed int64
	Kernels  int
	Failures []*SynthFailure
	// Digests maps each checked vector's seed to its matrix digest, as
	// Report.Digests does.
	Digests map[int64]string
}

// RunSynth checks n seed-derived vectors (seeds base..base+n-1) across
// a worker pool, shrinking any failures. The worker-pool shape mirrors
// Run; kernel i of a sweep reproduces directly via
// `hsmconf -synth -seed base+i -n 1`.
func (e *Engine) RunSynth(base int64, n, parallel int, logf func(format string, args ...any)) *SynthReport {
	if parallel < 1 {
		parallel = 1
	}
	rep := &SynthReport{BaseSeed: base, Kernels: n, Digests: make(map[int64]string, n)}
	var mu sync.Mutex
	jobs := make(chan int64)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range jobs {
				p := synth.ParamsForSeed(seed)
				div, digest := e.checkDigest(p.Seed, p.Source)
				div = e.markSynth(p, div)
				mu.Lock()
				rep.Digests[seed] = digest
				mu.Unlock()
				if div == nil {
					continue
				}
				min := e.ShrinkSynth(p, div)
				ues := div.Cores * max(div.Oversub, 1)
				f := &SynthFailure{Seed: seed, Params: p, Div: div,
					Minimized: min, MinSource: min.Source(ues)}
				mu.Lock()
				rep.Failures = append(rep.Failures, f)
				mu.Unlock()
				if logf != nil {
					logf("conformance: FAIL %s\nminimized vector %s (%d lines):\n%s",
						div, min.Key(), strings.Count(f.MinSource, "\n"), f.MinSource)
				}
			}
		}()
	}
	for i := int64(0); i < int64(n); i++ {
		jobs <- base + i
	}
	close(jobs)
	wg.Wait()
	return rep
}
