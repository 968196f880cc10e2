package conformance

import (
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/parser"
	"hsmcc/internal/cc/printer"
	"hsmcc/internal/golden"
)

// Explicit seeds everywhere: the suite's generator seed is a flag, so a
// failure line from any environment reproduces with
// `go test ./internal/conformance -run Suite -conformance.seed=<seed>`.
var (
	flagSeed = flag.Int64("conformance.seed", 1, "base seed for the conformance suite's kernel generator")
	flagN    = flag.Int("conformance.n", 220, "number of generated kernels the suite checks")
)

// TestConformanceSuite is the deterministic differential suite: ≥200
// generated Pthread kernels, each run through the interpreter baseline
// and the full translate→RCCE→sccsim pipeline across the default
// (cores × policy × budget) matrix, with zero tolerated divergence.
func TestConformanceSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs hundreds of simulated kernels")
	}
	eng := NewEngine()
	if err := eng.Matrix.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(eng.Matrix.Policies) < 3 {
		t.Fatalf("suite must cover at least 3 placement policies, got %v", eng.Matrix.Policies)
	}
	n := *flagN
	if n < 200 {
		t.Fatalf("suite must check at least 200 kernels, -conformance.n=%d", n)
	}
	rep := eng.Run(*flagSeed, n, runtime.NumCPU(), t.Errorf)
	t.Logf("checked %d kernels x %d RCCE cells each (base seed %d, policies %v, budgets %v)",
		rep.Kernels, eng.Matrix.Cells(), rep.BaseSeed, eng.Matrix.Policies, eng.Matrix.Budgets)
	if len(rep.Failures) != 0 {
		t.Fatalf("%d of %d kernels diverged", len(rep.Failures), rep.Kernels)
	}
	verifyDigests(t, "TestConformanceSuite", rep.Digests, *flagSeed == 1 && n == 220)
}

// goldenSet opens the digest file of the named test.
func goldenSet(test string) *golden.Set {
	return golden.NewSet(filepath.Join("testdata", test+".digests"))
}

// verifyDigests pins every kernel's matrix digest (output, makespan,
// switches and cycle statistics of each run) against the committed
// golden file. The file covers the default seed range only, so a run
// with non-default -conformance flags skips the comparison.
func verifyDigests(t *testing.T, test string, digests map[int64]string, defaults bool) {
	t.Helper()
	if !defaults {
		t.Logf("non-default seed range: skipping the golden digests of %s", test)
		return
	}
	set := goldenSet(test)
	for seed, d := range digests {
		set.Add(fmt.Sprintf("seed%d", seed), d)
	}
	set.Verify(t)
}

// TestConformanceRegressionSeeds replays the persisted seed corpus:
// pinned generated kernels plus any crashers hsmconf minimized into
// testdata/conformance, each at its recorded (cores, policy, budget)
// cell.
func TestConformanceRegressionSeeds(t *testing.T) {
	eng := NewEngine()
	divs, err := eng.Replay("../../testdata/conformance")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range divs {
		t.Errorf("regression seed diverged: %s", d)
	}
	cases, err := LoadSeeds("../../testdata/conformance")
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < 3 {
		t.Fatalf("seed corpus has %d entries, want the 3 pinned kernels at least", len(cases))
	}
	t.Logf("replayed %d corpus kernels", len(cases))
}

// TestSpecForSeedDeterministic pins the reproducibility contract: the
// same seed yields byte-identical kernels, and neighbouring seeds yield
// different ones.
func TestSpecForSeedDeterministic(t *testing.T) {
	a := SpecForSeed(*flagSeed, DefaultGenOptions())
	b := SpecForSeed(*flagSeed, DefaultGenOptions())
	if a.Source(4) != b.Source(4) {
		t.Fatal("same seed generated different kernels")
	}
	c := SpecForSeed(*flagSeed+1, DefaultGenOptions())
	if a.Source(4) == c.Source(4) {
		t.Fatal("adjacent seeds generated identical kernels (rng not seeded?)")
	}
}

// TestGeneratedProgramsRoundTrip is the printer round-trip property over
// generated programs: the emitted IR prints to source that re-parses to
// a structurally equal tree, and printing is a text fixpoint.
func TestGeneratedProgramsRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		spec := SpecForSeed(*flagSeed+seed, DefaultGenOptions())
		for _, threads := range []int{1, 2, 5} {
			file := spec.File(threads)
			src := printer.Print(file)
			reparsed, err := parser.Parse("roundtrip.c", src)
			if err != nil {
				t.Fatalf("seed %d threads %d: generated program does not re-parse: %v\n%s",
					spec.Seed, threads, err, src)
			}
			if !ast.Equal(file, reparsed) {
				t.Fatalf("seed %d threads %d: reparsed tree differs structurally\n%s",
					spec.Seed, threads, src)
			}
			if again := printer.Print(reparsed); again != src {
				t.Fatalf("seed %d threads %d: print is not a fixpoint\n--- first\n%s\n--- second\n%s",
					spec.Seed, threads, src, again)
			}
		}
	}
}

// fatSpec is a deliberately feature-dense kernel: three arrays of mixed
// kinds, a serial (LU-style) round, a mutex-guarded counter, a guarded
// cross-slice read and a per-thread print. Used to prove the oracle
// catches an injected translator bug anywhere in that structure and the
// shrinker strips it all back off.
func fatSpec() *Spec {
	return &Spec{
		Seed:      424242,
		PerThread: 3,
		Arrays:    []ElemKind{KInt, KDouble, KInt},
		Mutex:     true,
		Rounds: []Round{
			{
				Serial: 2,
				Loop: []Stmt{
					{Arr: 0, RHS: &Expr{Op: OpAdd, K: KInt,
						X: &Expr{Op: OpI, K: KInt},
						Y: &Expr{Op: OpAdd, K: KInt, X: &Expr{Op: OpRR, K: KInt}, Y: &Expr{Op: OpIntLit, K: KInt, Val: 1}}}},
					{Arr: 1, RHS: &Expr{Op: OpMul, K: KDouble,
						X: &Expr{Op: OpMe, K: KInt},
						Y: &Expr{Op: OpFloatLit, K: KDouble, FVal: 0.5}}},
				},
				Crit:  &Expr{Op: OpMe, K: KInt},
				Print: true,
			},
			{
				Loop: []Stmt{
					{Arr: 2, AddTo: true,
						RHS:   &Expr{Op: OpRead, K: KInt, Arr: 0, Idx: &Expr{Op: OpModN, K: KInt, X: &Expr{Op: OpI, K: KInt}}},
						Guard: &Expr{Op: OpI, K: KInt}},
				},
			},
		},
	}
}

// TestInjectedTranslateBugCaughtAndShrunk is the acceptance check for
// the whole engine: corrupt the translator output the way a broken
// Algorithm 4 would (every core gets thread ID 0 instead of its core
// ID), verify the differential oracle catches it, and verify the
// shrinker reduces the feature-dense failing kernel to a reproducer of
// at most 25 lines that still fails — while the uncorrupted pipeline
// passes both the original and the minimized kernel.
func TestInjectedTranslateBugCaughtAndShrunk(t *testing.T) {
	spec := fatSpec()

	clean := NewEngine()
	if div := clean.Check(spec); div != nil {
		t.Fatalf("clean pipeline must pass the fat kernel, got %s\n%s", div, div.Source)
	}

	buggy := NewEngine()
	buggy.Mutate = func(src string) string {
		// ThreadsToProcesses emits `step<r>((void *)(myID));` — dropping
		// the core ID simulates a broken UseCoreID in Algorithm 4.
		return strings.ReplaceAll(src, "(void *)(myID)", "(void *)(0)")
	}
	div := buggy.Check(spec)
	if div == nil {
		t.Fatal("injected translate bug was not caught by the differential oracle")
	}
	t.Logf("caught: %s", div)

	min := buggy.Shrink(spec, div)
	minSrc := min.Source(div.Cores)
	lines := strings.Count(minSrc, "\n")
	t.Logf("minimized to %d lines:\n%s", lines, minSrc)
	if lines > 25 {
		t.Fatalf("minimized reproducer is %d lines, want <= 25:\n%s", lines, minSrc)
	}
	if buggy.CheckCell(min, div.Cores, div.Policy, div.Budget, div.Oversub) == nil {
		t.Fatal("minimized kernel no longer reproduces the injected bug")
	}
	if d := clean.CheckCell(min, div.Cores, div.Policy, div.Budget, div.Oversub); d != nil {
		t.Fatalf("minimized kernel fails even without the injected bug: %s", d)
	}
}

// TestInjectedBarrierBugCaught checks a second fault class: deleting the
// RCCE barrier that a join loop became must also be observable. Unlike
// the thread-ID fault this one corrupts synchronisation, not data
// distribution — with no barrier, main's reduction on fast cores can
// read slices slower cores have not produced yet.
func TestInjectedBarrierBugCaught(t *testing.T) {
	buggy := NewEngine()
	buggy.Matrix = Matrix{Cores: []int{4}, Policies: []string{"offchip", "size", "freq"}, Budgets: []int{0}}
	buggy.Mutate = func(src string) string {
		return strings.ReplaceAll(src, "RCCE_barrier(&RCCE_COMM_WORLD);", ";")
	}
	caught := 0
	for seed := int64(0); seed < 12; seed++ {
		spec := SpecForSeed(*flagSeed+1000+seed, DefaultGenOptions())
		if buggy.Check(spec) != nil {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("removing every barrier was never observable across 12 kernels")
	}
	t.Logf("barrier removal caught on %d of 12 kernels", caught)
}

// TestShrinkIsDeterministic: shrinking the same failure twice yields the
// same reproducer (the shrinker enumerates candidates in a fixed order).
func TestShrinkIsDeterministic(t *testing.T) {
	spec := fatSpec()
	buggy := NewEngine()
	buggy.Mutate = func(src string) string {
		return strings.ReplaceAll(src, "(void *)(myID)", "(void *)(0)")
	}
	div := buggy.Check(spec)
	if div == nil {
		t.Fatal("expected a divergence")
	}
	a := buggy.Shrink(spec, div).Source(div.Cores)
	b := buggy.Shrink(spec, div).Source(div.Cores)
	if a != b {
		t.Fatalf("shrink is nondeterministic:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestGenerateRespectsBounds sanity-checks the generator against its
// options so suite cost stays predictable.
func TestGenerateRespectsBounds(t *testing.T) {
	opts := DefaultGenOptions()
	for seed := int64(0); seed < 200; seed++ {
		s := Generate(rand.New(rand.NewSource(seed)), opts)
		if len(s.Arrays) < 1 || len(s.Arrays) > opts.MaxArrays {
			t.Fatalf("seed %d: %d arrays", seed, len(s.Arrays))
		}
		if len(s.Rounds) < 1 || len(s.Rounds) > opts.MaxRounds {
			t.Fatalf("seed %d: %d rounds", seed, len(s.Rounds))
		}
		if s.PerThread < 1 || s.PerThread > opts.MaxPerThread {
			t.Fatalf("seed %d: per-thread %d", seed, s.PerThread)
		}
		for _, r := range s.Rounds {
			if len(r.Loop) > opts.MaxStmts {
				t.Fatalf("seed %d: %d stmts in round", seed, len(r.Loop))
			}
			if r.Serial > opts.MaxSerial {
				t.Fatalf("seed %d: serial %d", seed, r.Serial)
			}
		}
	}
}
