package bench

import (
	"path/filepath"
	"testing"

	"hsmcc/internal/golden"
	"hsmcc/internal/partition"
	"hsmcc/internal/rcce"
	"hsmcc/internal/synth"
)

// The engine-equivalence tests pin the simulated results of the corpus
// to committed digests (testdata/<test>.digests): output, makespan,
// context switches and every cycle counter of each run. The digests
// were recorded while the compiled engine and the tree-walk reference
// both produced them, so the tests keep the reference semantics after
// the reference itself is gone. Any change to simulated behaviour — in
// the interpreter, the runtimes or the machine model — fails them;
// regenerate with -update only when a change is meant to alter results
// (docs/TESTING.md).

// goldenSet opens the digest file of the named test.
func goldenSet(test string) *golden.Set {
	return golden.NewSet(filepath.Join("testdata", test+".digests"))
}

// equivConfig is a reduced-size configuration that still touches every
// address class (private, shared DRAM, MPB) and both runtimes.
func equivConfig() Config {
	cfg := DefaultConfig()
	cfg.Threads = 8
	cfg.Scale = 0.05
	return cfg
}

// addRuns records w's Pthread baseline and its translated runs under an
// off-chip-only and an on-chip placement policy.
func addRuns(t *testing.T, set *golden.Set, prefix string, w Workload, cfg Config) {
	t.Helper()
	base, err := RunBaseline(w, cfg)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	set.Add(prefix+"/baseline", base.Digest())
	for _, pol := range []partition.Policy{partition.PolicyOffChipOnly, partition.PolicySizeAscending} {
		res, err := RunRCCE(w, cfg, pol)
		if err != nil {
			t.Fatalf("rcce %v: %v", pol, err)
		}
		set.Add(prefix+"/"+pol.String(), res.Digest())
	}
}

// TestEngineEquivalenceCorpus pins the full 10-workload corpus, for the
// single-core Pthread baseline and for the translate→RCCE→sccsim
// pipeline under both an off-chip-only and an on-chip placement policy.
func TestEngineEquivalenceCorpus(t *testing.T) {
	set := goldenSet("TestEngineEquivalenceCorpus")
	cfg := equivConfig()
	for _, w := range All() {
		t.Run(w.Key, func(t *testing.T) { addRuns(t, set, w.Key, w, cfg) })
	}
	set.Verify(t)
}

// TestEngineEquivalenceSynth extends the pin from the hand-written
// corpus to the synthetic plane: a seeded sample of parameter vectors
// (plus mix extremes), on the baseline and on the translated pipeline
// under both an off-chip and an on-chip policy.
func TestEngineEquivalenceSynth(t *testing.T) {
	set := goldenSet("TestEngineEquivalenceSynth")
	cfg := equivConfig()
	cfg.Scale = 1.0 // synth vectors below are already test-sized
	vectors := []synth.Params{
		{Seed: 21, Ops: 48, MemFrac: 1, LoadFrac: 0.5, SharedFrac: 1, Sharing: 4, SharedAddrs: 16, PrivateAddrs: 1, Rounds: 2},
		{Seed: 22, Ops: 36, MemFrac: 0, LoadFrac: 0, SharedFrac: 0, Sharing: 1, SharedAddrs: 1, PrivateAddrs: 1, Rounds: 1, Double: true},
	}
	for seed := int64(300); seed < 306; seed++ {
		vectors = append(vectors, synth.ParamsForSeed(seed))
	}
	for _, p := range vectors {
		t.Run(p.Key(), func(t *testing.T) { addRuns(t, set, p.Key(), SynthWorkload(p), cfg) })
	}
	set.Verify(t)
}

// TestEngineEquivalenceOversubscribed covers the §7.2 many-to-one
// scheduler (more UEs than cores), which exercises the manyToOne policy
// and its context-switch charges.
func TestEngineEquivalenceOversubscribed(t *testing.T) {
	w, ok := ByKey("pi")
	if !ok {
		t.Fatal("no pi workload")
	}
	cfg := equivConfig()
	cfg.Threads = 6
	cfg.RCCE = func(n int) rcce.Options {
		o := rcce.DefaultOptions(n)
		o.Cores = []int{0, 1, 2, 0, 1, 2}
		o.AllowOversubscribe = true
		return o
	}
	res, err := RunRCCE(w, cfg, partition.PolicyOffChipOnly)
	if err != nil {
		t.Fatal(err)
	}
	set := goldenSet("TestEngineEquivalenceOversubscribed")
	set.Add("pi/offchip", res.Digest())
	set.Verify(t)
}
