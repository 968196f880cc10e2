package bench

import (
	"testing"

	"hsmcc/internal/golden"
	"hsmcc/internal/partition"
	"hsmcc/internal/profile"
)

// profCfg is the small-scale configuration the profiling tests share.
func profCfg(threads int) Config {
	cfg := DefaultConfig()
	cfg.Threads = threads
	cfg.Scale = 0.05
	cfg.Cache = NewCache()
	return cfg
}

// TestProfiledPolicyEndToEndCorpus runs the profile→optimize→translate→
// execute loop for every corpus workload and checks the translated
// program still computes the baseline's answer.
func TestProfiledPolicyEndToEndCorpus(t *testing.T) {
	cfg := profCfg(4)
	for _, w := range All() {
		both, err := RunBothBackends(w, cfg, partition.PolicyProfiled)
		if err != nil {
			t.Fatalf("%s: %v", w.Key, err)
		}
		if !both.Match {
			t.Errorf("%s: profiled RCCE output diverged from the baseline\nbase:\n%s\nrcce:\n%s",
				w.Key, both.Baseline.Output, both.RCCE.Output)
		}
		if both.RCCE.Mode != "rcce-profiled" {
			t.Errorf("%s: mode %q", w.Key, both.RCCE.Mode)
		}
		if both.RCCE.PlacementDigest == "" {
			t.Errorf("%s: profiled run has no placement digest", w.Key)
		}
	}
}

// TestProfileByteIdenticalAcrossEngines pins the profile reports'
// bytes: the access counters per shared variable are a function of the
// simulated memory accesses alone, so each report's JSON serialization
// matches the digest both engines produced.
func TestProfileByteIdenticalAcrossEngines(t *testing.T) {
	set := goldenSet("TestProfileByteIdenticalAcrossEngines")
	for _, w := range []string{"pi", "stream", "hist", "prodcons", "lu"} {
		wl, ok := ByKey(w)
		if !ok {
			t.Fatalf("unknown workload %s", w)
		}
		rep, err := ProfileWorkload(wl, profCfg(4))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		buf, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		set.Add(w, golden.Sum(buf))
	}
	set.Verify(t)
}

// TestProfiledNotWorseThanStatic is the headline property of the
// subsystem: at equal MPB budget, the measured-placement policy's cycle
// count is never worse than the best static policy (ties allowed — at
// unconstrained budgets every policy converges to all-on-chip).
func TestProfiledNotWorseThanStatic(t *testing.T) {
	statics := []partition.Policy{
		partition.PolicyOffChipOnly,
		partition.PolicySizeAscending,
		partition.PolicyFrequencyDensity,
	}
	for _, budget := range []int{2048, 16384, 0} {
		cfg := profCfg(8)
		cfg.MPBCapacity = budget
		for _, w := range All() {
			best := uint64(0)
			for _, pol := range statics {
				res, err := RunRCCE(w, cfg, pol)
				if err != nil {
					t.Fatalf("%s/%v: %v", w.Key, pol, err)
				}
				if best == 0 || uint64(res.Makespan) < best {
					best = uint64(res.Makespan)
				}
			}
			prof, err := RunRCCE(w, cfg, partition.PolicyProfiled)
			if err != nil {
				t.Fatalf("%s/profiled: %v", w.Key, err)
			}
			if uint64(prof.Makespan) > best {
				t.Errorf("%s budget %d: profiled %d ps worse than best static %d ps",
					w.Key, budget, prof.Makespan, best)
			}
		}
	}
}

// TestProfiledPlacementRespectsBudget: the optimizer's chosen set fits
// the effective budget, and Stage 4 echoes it.
func TestProfiledPlacementRespectsBudget(t *testing.T) {
	cfg := profCfg(8)
	for _, budget := range []int{512, 2048, 16384} {
		cfg.MPBCapacity = budget
		for _, w := range All() {
			tr, err := TranslateWorkload(w, cfg, partition.PolicyProfiled)
			if err != nil {
				t.Fatalf("%s: %v", w.Key, err)
			}
			if tr.Placement == nil {
				t.Fatalf("%s: no placement attached", w.Key)
			}
			if tr.Placement.OnChipBytes > budget {
				t.Errorf("%s: placement %d B over budget %d", w.Key, tr.Placement.OnChipBytes, budget)
			}
			if tr.OnChipBytes > budget {
				t.Errorf("%s: Stage 4 placed %d B over budget %d", w.Key, tr.OnChipBytes, budget)
			}
		}
	}
}

// TestProfilePassMemoizedAcrossBudgets: one profiling run serves every
// budget of a sweep (the profile is measured under the off-chip
// reference placement, so it is budget-independent).
func TestProfilePassMemoizedAcrossBudgets(t *testing.T) {
	cfg := profCfg(4)
	w, _ := ByKey("dot")
	for _, budget := range []int{512, 2048, 16384, 0} {
		c := cfg
		c.MPBCapacity = budget
		if _, err := TranslateWorkload(w, c, partition.PolicyProfiled); err != nil {
			t.Fatal(err)
		}
	}
	if n := cfg.Cache.Stats().ProfileRuns; n != 1 {
		t.Fatalf("profile pass ran %d times across budgets, want 1", n)
	}
}

// TestBaselineRunMemoizedAcrossCells (ROADMAP open item): every policy
// and budget cell at one (workload, cores) configuration shares a
// single baseline execution through the shared Cache.
func TestBaselineRunMemoizedAcrossCells(t *testing.T) {
	cfg := profCfg(4)
	w, _ := ByKey("pi")
	policies := []partition.Policy{
		partition.PolicyOffChipOnly,
		partition.PolicySizeAscending,
		partition.PolicyFrequencyDensity,
		partition.PolicyProfiled,
	}
	for _, pol := range policies {
		if _, err := RunBothBackends(w, cfg, pol); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
	if n := cfg.Cache.Stats().BaselineRuns; n != 1 {
		t.Fatalf("baseline ran %d times across %d cells, want 1", n, len(policies))
	}
	// A different core count is a different configuration: it must not
	// share the run.
	cfg2 := cfg
	cfg2.Threads = 2
	if _, err := RunBaseline(w, cfg2); err != nil {
		t.Fatal(err)
	}
	if n := cfg.Cache.Stats().BaselineRuns; n != 2 {
		t.Fatalf("baseline runs after second cores value = %d, want 2", n)
	}
	// A different problem scale never shares either.
	cfg3 := cfg
	cfg3.Scale = cfg.Scale * 2
	if _, err := RunBaseline(w, cfg3); err != nil {
		t.Fatal(err)
	}
	if n := cfg.Cache.Stats().BaselineRuns; n != 3 {
		t.Fatalf("baseline runs after scale change = %d, want 3", n)
	}
}

// TestTranslationCacheDistinguishesPlacements (satellite fix): two
// profiled translations at the same (workload, cores, capacity) tuple
// but different placement maps must not share a cache entry, and a
// profiled translation must not collide with a static-policy one.
func TestTranslationCacheDistinguishesPlacements(t *testing.T) {
	cache := NewCache()
	w, _ := ByKey("dot")
	// Hand-built placements give full control over the map contents.
	mk := func(onchip map[string]bool) *profile.Placement {
		pl := &profile.Placement{Budget: 16384}
		for _, name := range []string{"a", "b", "psum"} {
			pl.Choices = append(pl.Choices, profile.Choice{Name: name, OnChip: onchip[name]})
		}
		return pl
	}
	plA := mk(map[string]bool{"psum": true})
	plB := mk(map[string]bool{"a": true})
	trA, err := cache.translate(w, 4, 0.05, partition.PolicyProfiled, 16384, plA, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	trB, err := cache.translate(w, 4, 0.05, partition.PolicyProfiled, 16384, plB, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trA == trB || trA.source == trB.source {
		t.Fatalf("different placements shared one translation")
	}
	trStatic, err := cache.translate(w, 4, 0.05, partition.PolicySizeAscending, 16384, nil, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trStatic == trA || trStatic == trB {
		t.Fatalf("static translation shared a profiled cache entry")
	}
	if n := cache.Stats().TranslateRuns; n != 3 {
		t.Fatalf("pipeline ran %d times, want 3", n)
	}
}

// TestProfileReportShape sanity-checks the measured content: every
// shared variable of the translated program appears with traffic and a
// full sharer set, and the MPB statistics reflect the off-chip
// reference run.
func TestProfileReportShape(t *testing.T) {
	cfg := profCfg(4)
	w, _ := ByKey("stream")
	rep, err := ProfileWorkload(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Vars) != 3 {
		t.Fatalf("stream profile has %d vars, want 3 (a,b,c): %+v", len(rep.Vars), rep.Vars)
	}
	for i := range rep.Vars {
		v := &rep.Vars[i]
		if v.Accesses() == 0 {
			t.Errorf("%s: no measured traffic", v.Name)
		}
		if len(v.Sharers) != 4 {
			t.Errorf("%s: sharer set %v, want all 4 cores", v.Name, v.Sharers)
		}
	}
	if rep.MPB.UsedBytes != 0 {
		t.Errorf("off-chip reference run occupied %d MPB bytes", rep.MPB.UsedBytes)
	}
	if rep.MPB.SharedAccesses == 0 {
		t.Errorf("no shared-DRAM accesses recorded")
	}
	if rep.MPB.CapacityBytes <= 0 || rep.MPB.PerCoreBytes <= 0 {
		t.Errorf("MPB capacity missing: %+v", rep.MPB)
	}
}
