package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"hsmcc/internal/conformance"
)

func kernelSources(seed int64, n int) []string {
	gen := conformance.DefaultGenOptions()
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, conformance.SpecForSeed(kernelSeed(seed, i), gen).Source(4))
	}
	return out
}

func planBodies(t *testing.T, seed int64) []string {
	t.Helper()
	plan, err := daemonPlan(seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range plan {
		out = append(out, p.path+" "+string(p.body))
	}
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSeedDeterminesKernels(t *testing.T) {
	a, b, c := kernelSources(7, 8), kernelSources(7, 8), kernelSources(8, 8)
	if !equal(a, b) {
		t.Error("the same seed generated different kernel sources")
	}
	if equal(a, c) {
		t.Error("different seeds generated the same kernel sources")
	}
}

func TestSeedDeterminesRequestPlan(t *testing.T) {
	a, b, c := planBodies(t, 7), planBodies(t, 7), planBodies(t, 8)
	if !equal(a, b) {
		t.Error("the same seed generated different request plans")
	}
	if equal(a, c) {
		t.Error("different seeds generated the same request plan")
	}
}

func TestColdKeysNeverRepeat(t *testing.T) {
	plan, err := daemonPlan(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	count := map[string]int{}
	for _, p := range plan {
		if !p.cold {
			count["hot"]++
			continue
		}
		count[p.path]++
		if seen[p.req.Workload] {
			t.Fatalf("cold key %s repeats", p.req.Workload)
		}
		seen[p.req.Workload] = true
	}
	for kind, w := range map[string]float64{"hot": weightHot, "/v1/simulate": weightSimulate,
		"/v1/translate": weightTranslate, "/v1/compile": weightCompile} {
		want := w / weightSum
		if share := float64(count[kind]) / float64(len(plan)); math.Abs(share-want) > 0.02 {
			t.Errorf("%s share %.3f, want about %.3f", kind, share, want)
		}
	}
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNamesAreWellFormed(t *testing.T) {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, m := range endToEnd {
		names = append(names, m.name)
	}
	for _, m := range perLayer {
		names = append(names, m.name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !namePattern.MatchString(n) {
			t.Errorf("name %q uses characters outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
}

// TestSpecMatchesProgram checks that every workload and metric
// BENCHMARK.json names is one the program runs or emits, with the same
// unit, and the reverse.
func TestSpecMatchesProgram(t *testing.T) {
	s := readSpec(t)
	var specW []string
	for _, w := range s.Workloads {
		specW = append(specW, w.Name)
	}
	var progW []string
	for _, w := range workloads {
		progW = append(progW, w.name)
	}
	if !equal(specW, progW) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", specW, progW)
	}
	check := func(kind string, spec []struct{ Name, Unit string }, prog []struct{ name, unit string }) {
		units := map[string]string{}
		for _, m := range prog {
			units[m.name] = m.unit
		}
		for _, m := range spec {
			if u, ok := units[m.Name]; !ok {
				t.Errorf("%s metric %s is not emitted", kind, m.Name)
			} else if u != m.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, emitted %q", kind, m.Name, m.Unit, u)
			}
		}
		if len(spec) != len(prog) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, the program emits %d", kind, len(spec), len(prog))
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{50, 0}, {100, 90}, {123, 90}, {200, 95}, {1000, 99}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && beyond(tc.n, p) < 10 {
			t.Errorf("n=%d p%g leaves %d samples beyond", tc.n, p, beyond(tc.n, p))
		}
	}
}

func TestWindowPeakIgnoresOneSlice(t *testing.T) {
	var samples []rssSample
	for i := 0; i < 100; i++ {
		mb := 100.0
		if i == 10 {
			mb = 500 // one spike in the first slice
		}
		if i%20 == 5 {
			mb = 120 // every slice's own peak
		}
		samples = append(samples, rssSample{at: time.Duration(i) * time.Millisecond, mb: mb})
	}
	// Past the measured stretch: ignored.
	samples = append(samples, rssSample{at: 150 * time.Millisecond, mb: 900})
	if got := windowPeakMB(samples, 100*time.Millisecond); got != 120 {
		t.Errorf("windowPeakMB = %g, want 120", got)
	}
}

var sink int

func TestCPUSharesReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			sink += i * i
		}
	}
	pprof.StopCPUProfile()
	samples, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.count
		for _, fn := range s.stack {
			if fn == "hsmcc/perfbench.TestCPUSharesReadsRuntimeProfile" {
				found = true
			}
		}
	}
	if total == 0 || !found {
		t.Errorf("decoded %d samples (%d stacks); test function found: %v", total, len(samples), found)
	}
	if _, err := cpuShares(buf.Bytes()); err != nil {
		t.Error(err)
	}
}

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"hsmcc/internal/interp.(*Sim).step":    "hsmcc/internal/interp",
		"runtime.mallocgc":                     "runtime",
		"hsmcc/internal/cc/lexer.scanOperator": "hsmcc/internal/cc/lexer",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}
