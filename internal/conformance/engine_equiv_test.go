package conformance

import (
	"fmt"
	"testing"

	"hsmcc/internal/bench"
	"hsmcc/internal/golden"
	"hsmcc/internal/partition"
	"hsmcc/internal/synth"
)

// The engine-equivalence tests pin generated kernels outside the suite
// seed range to committed digests (testdata/<test>.digests): output,
// makespan, switches and cycle statistics of the Pthread baseline and of
// the translated RCCE pipeline. The digests were recorded while the
// compiled engine and the tree-walk reference both produced them.

// addKernelRuns records w's baseline and size-policy RCCE runs.
func addKernelRuns(t *testing.T, set *golden.Set, name string, w bench.Workload, cfg bench.Config) {
	t.Helper()
	base, err := bench.RunBaseline(w, cfg)
	if err != nil {
		t.Fatalf("%s baseline: %v", name, err)
	}
	conv, err := bench.RunRCCE(w, cfg, partition.PolicySizeAscending)
	if err != nil {
		t.Fatalf("%s rcce: %v", name, err)
	}
	set.Add(name+"/baseline", base.Digest())
	set.Add(name+"/rcce", conv.Digest())
}

// TestEngineEquivalenceKernels covers a sample of generated kernels
// (including thread-specific solo tasks, serial rounds and mutexes).
func TestEngineEquivalenceKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs dozens of simulated kernels")
	}
	const kernels = 24
	const cores = 4
	set := goldenSet("TestEngineEquivalenceKernels")
	for seed := int64(5000); seed < 5000+kernels; seed++ {
		src := SpecForSeed(seed, DefaultGenOptions()).Source(cores)
		cfg := bench.DefaultConfig()
		cfg.Threads = cores
		addKernelRuns(t, set, fmt.Sprintf("seed%d", seed), kernelWorkload(seed, src), cfg)
	}
	set.Verify(t)
}

// TestEngineEquivalenceSynthKernels applies the same pin to
// seed-derived synthetic vectors, so the memory-behaviour plane (mix,
// sharing degree, footprint) is covered and not only the kernel grammar.
func TestEngineEquivalenceSynthKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sample of simulated synthetic kernels")
	}
	const kernels = 8
	const cores = 4
	set := goldenSet("TestEngineEquivalenceSynthKernels")
	for seed := int64(6000); seed < 6000+kernels; seed++ {
		p := synth.ParamsForSeed(seed)
		cfg := bench.DefaultConfig()
		cfg.Threads = cores
		cfg.Scale = 1.0
		addKernelRuns(t, set, p.Key(), bench.SynthWorkload(p), cfg)
	}
	set.Verify(t)
}

// TestGeneratorEmitsSoloTasks pins the thread-specific-launch extension:
// across a seed range, some kernels must contain solo (`if (me == k)`)
// tasks, and their emitted source must carry the guard.
func TestGeneratorEmitsSoloTasks(t *testing.T) {
	found := 0
	for seed := int64(0); seed < 80; seed++ {
		spec := SpecForSeed(seed, DefaultGenOptions())
		for _, rd := range spec.Rounds {
			if rd.Solo == nil {
				continue
			}
			found++
			// The solo target must not be a loop target of its round
			// (race-freedom by construction).
			for _, st := range rd.Loop {
				if st.Arr == rd.Solo.Arr {
					t.Fatalf("seed %d: solo targets array %d which the round's loop also writes", seed, rd.Solo.Arr)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no generated kernel contained a thread-specific solo task across 80 seeds")
	}
	t.Logf("%d solo tasks across 80 seeds", found)
}
