package conformance

import (
	"flag"
	"runtime"
	"strings"
	"testing"

	"hsmcc/internal/synth"
)

var flagSynthN = flag.Int("conformance.synthn", 120, "number of synthetic kernels the synth suite checks")

// TestSynthConformanceSuite is the synthetic analogue of the main
// differential suite: seed-derived parameter vectors, each emitted as a
// race-free Pthread kernel and checked through the interpreter baseline
// vs the translate→RCCE→sccsim pipeline across the full default matrix,
// with zero tolerated divergence.
func TestSynthConformanceSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs dozens of simulated kernels over the full matrix")
	}
	eng := NewEngine()
	rep := eng.RunSynth(1, *flagSynthN, runtime.NumCPU(), t.Errorf)
	t.Logf("checked %d synthetic kernels x %d RCCE cells each", rep.Kernels, eng.Matrix.Cells())
	if len(rep.Failures) != 0 {
		t.Fatalf("%d of %d synthetic kernels diverged", len(rep.Failures), rep.Kernels)
	}
	verifyDigests(t, "TestSynthConformanceSuite", rep.Digests, *flagSynthN == 120)
}

// TestSynthDivergenceReproLine pins the repro contract: a synthetic
// divergence identifies itself and prints an hsmconf -synth line.
func TestSynthDivergenceReproLine(t *testing.T) {
	buggy := NewEngine()
	buggy.Matrix = SmokeMatrix()
	buggy.Mutate = func(src string) string {
		return strings.ReplaceAll(src, "(void *)(myID)", "(void *)(0)")
	}
	p := synthFatParams()
	div := buggy.CheckSynth(p)
	if div == nil {
		t.Fatal("injected thread-ID bug not caught on a synthetic kernel")
	}
	if !div.Synth || div.SynthKey != p.Key() {
		t.Fatalf("divergence not marked synthetic: %+v", div)
	}
	if line := div.String(); !strings.Contains(line, "hsmconf -synth -seed") {
		t.Fatalf("repro line lacks -synth mode: %s", line)
	}
}

// synthFatParams is a deliberately feature-dense vector: every op
// bucket populated, multi-round, multi-group sharing — the analogue of
// the spec tests' fatSpec.
func synthFatParams() synth.Params {
	return synth.Params{
		Seed:         42,
		Ops:          64,
		MemFrac:      0.8,
		LoadFrac:     0.5,
		SharedFrac:   0.5,
		Sharing:      2,
		SharedAddrs:  24,
		PrivateAddrs: 12,
		Rounds:       3,
		Double:       true,
	}
}

// TestInjectedBugCaughtOnSynthAndShrunk is the synth-mode acceptance
// check: the differential oracle catches an injected translator fault
// on a synthetic kernel, and parameter-vector shrinking reduces the
// dense vector to a minimal reproducer that still fails under the
// fault and passes without it.
func TestInjectedBugCaughtOnSynthAndShrunk(t *testing.T) {
	p := synthFatParams()

	clean := NewEngine()
	if div := clean.CheckSynth(p); div != nil {
		t.Fatalf("clean pipeline must pass the fat synthetic kernel, got %s\n%s", div, div.Source)
	}

	buggy := NewEngine()
	buggy.Mutate = func(src string) string {
		return strings.ReplaceAll(src, "(void *)(myID)", "(void *)(0)")
	}
	div := buggy.CheckSynth(p)
	if div == nil {
		t.Fatal("injected translate bug was not caught on the synthetic kernel")
	}
	t.Logf("caught: %s", div)

	min := buggy.ShrinkSynth(p, div)
	if min.Complexity() >= p.Complexity() {
		t.Fatalf("shrink did not reduce the vector: %+v", min)
	}
	min2 := buggy.ShrinkSynth(p, div)
	if min != min2 {
		t.Fatalf("synth shrink is nondeterministic: %+v vs %+v", min, min2)
	}
	if buggy.CheckSynthCell(min, div.Cores, div.Policy, div.Budget, div.Oversub) == nil {
		t.Fatal("minimized vector no longer reproduces the injected bug")
	}
	if d := clean.CheckSynthCell(min, div.Cores, div.Policy, div.Budget, div.Oversub); d != nil {
		t.Fatalf("minimized vector fails even without the injected bug: %s", d)
	}
	t.Logf("minimized %s -> %s", p.Key(), min.Key())
}

// TestSynthOversubscribedCells checks the §7.2 many-to-one mapping on
// synthetic kernels specifically: the emitted thread count is
// cores×factor, and both backends agree at factor 2.
func TestSynthOversubscribedCells(t *testing.T) {
	eng := NewEngine()
	eng.Matrix = Matrix{Cores: []int{2}, Policies: []string{"offchip", "size"}, Budgets: []int{0}, Oversub: []int{2}}
	for seed := int64(100); seed < 106; seed++ {
		if div := eng.CheckSynth(synth.ParamsForSeed(seed)); div != nil {
			t.Fatalf("seed %d oversubscribed: %s\n%s", seed, div, div.Source)
		}
	}
}
