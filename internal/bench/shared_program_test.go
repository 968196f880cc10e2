package bench

import (
	"fmt"
	"sync"
	"testing"

	"hsmcc/internal/partition"
	"hsmcc/internal/rcce"
)

// TestSharedProgramConcurrentCells pins the immutable-Program contract:
// one compiled Program (per backend) serves many concurrent simulations.
// It compiles the workload exactly once per backend through the shared
// cache, then runs 12 matrix cells — baseline cells under varying
// scheduler options and RCCE cells under varying runtime options,
// including an oversubscribed mapping — concurrently against the two
// shared Programs. Run under -race (CI does), this is the proof that
// nothing reached from a Program is written during execution; the
// deterministic cells must also reproduce byte-identical output.
func TestSharedProgramConcurrentCells(t *testing.T) {
	w, ok := ByKey("pi")
	if !ok {
		t.Fatal("no pi workload")
	}
	cfg := DefaultConfig()
	cfg.Threads = 6
	cfg.Scale = 0.05
	cfg.Cache = NewCache()

	basePr, err := CompileBaseline(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TranslateWorkload(w, cfg, partition.PolicySizeAscending)
	if err != nil {
		t.Fatal(err)
	}

	type cell struct {
		name string
		run  func() (string, error)
	}
	var cells []cell
	// Baseline cells: the same Program under different quanta.
	for _, q := range []int{5_000, 10_000, 20_000} {
		q := q
		for rep := 0; rep < 2; rep++ {
			cells = append(cells, cell{
				name: fmt.Sprintf("baseline/q%d", q),
				run: func() (string, error) {
					c := cfg
					c.Baseline.QuantumCycles = q
					res, err := RunBaselineProgram(w, basePr, c)
					if err != nil {
						return "", err
					}
					return res.Output, nil
				},
			})
		}
	}
	// RCCE cells: the same translated Program under different runtime
	// configurations, including §7.2 many-to-one oversubscription.
	rcceOpts := []func(int) rcce.Options{
		func(n int) rcce.Options { return rcce.DefaultOptions(n) },
		func(n int) rcce.Options {
			o := rcce.DefaultOptions(n)
			o.StripeMPB = false
			return o
		},
		func(n int) rcce.Options {
			o := rcce.DefaultOptions(n)
			o.Cores = []int{0, 1, 2, 0, 1, 2}
			o.AllowOversubscribe = true
			return o
		},
	}
	for i, mk := range rcceOpts {
		mk := mk
		for rep := 0; rep < 2; rep++ {
			cells = append(cells, cell{
				name: fmt.Sprintf("rcce/opt%d", i),
				run: func() (string, error) {
					c := cfg
					c.RCCE = mk
					res, err := RunRCCEProgram(w, tr, c, partition.PolicySizeAscending)
					if err != nil {
						return "", err
					}
					return res.Output, nil
				},
			})
		}
	}
	if len(cells) < 8 {
		t.Fatalf("want >= 8 concurrent cells, have %d", len(cells))
	}

	outs := make([]string, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i := range cells {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = cells[i].run()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %s: %v", cells[i].name, err)
		}
	}
	// Determinism: identical cells must reproduce identical output.
	byName := map[string]string{}
	for i, c := range cells {
		if prev, ok := byName[c.name]; ok {
			if prev != outs[i] {
				t.Errorf("cell %s: concurrent repeats diverged:\n%s\n---\n%s", c.name, prev, outs[i])
			}
		} else {
			byName[c.name] = outs[i]
		}
	}
	// And every cell computed the right answer.
	want := DistinctLines(outs[0])
	for i := range cells {
		if !SameResults(outs[0], outs[i]) {
			t.Errorf("cell %s result lines diverge from baseline: %v vs %v",
				cells[i].name, want, DistinctLines(outs[i]))
		}
	}
}
