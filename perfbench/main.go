// Command perfbench is the repository's benchmark: three workloads that
// drive the translator, the simulator and the daemon through the entry
// points their users call, each timed end to end, with every output
// checked. A traced run (--trace 1) replays the same inputs layer by
// layer and reports per-layer metrics instead. See README.md.
//
//	go run . --workload corpus-sweep --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// only when every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// processStart approximates process start for the set-up clock.
var processStart = time.Now()

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow repetition does not move it. setupAfter of
// them run after the timed phase: the host's speed drifts over seconds,
// so set-ups at both ends of a run see two of its states.
const (
	setupRepeats = 9
	setupAfter   = 4
)

// workload is one named traffic shape.
type workload struct {
	name string
	// minOps is the op count every run reaches, whatever the deadline;
	// it also fixes which tail percentile the workload reports.
	minOps int
	// passLen groups ops into whole passes: a run stops only at a pass
	// boundary, so every run measures the same mix (1 = no grouping).
	passLen int
	// workers is the closed-loop worker count (0 = nproc).
	workers int
	setup   func(seed int64, tr *tracer) (instance, error)
}

// instance is one set-up copy of a workload.
type instance interface {
	// op runs op i of the seeded sequence; it is called concurrently
	// from the workload's workers.
	op(i int) opResult
	// finish runs the checks that need the whole phase (oracles,
	// cross-pass equality) and computes the simulated statistics.
	finish(ph *phase) (*outcome, error)
	// replayCells lists, in a fixed order, a bounded set of the distinct
	// cells the instance ran, for the traced run's layer replay.
	replayCells() []replayCell
	// layerMetrics adds the per-layer metrics only the workload itself
	// can see, measured over the traced phase ph.
	layerMetrics(m map[string]float64, ph *phase, tr *tracer)
	// close releases the instance (servers, listeners).
	close()
}

// opResult is one measured op.
type opResult struct {
	ms     float64
	failed bool
	// class labels the op for per-class latencies ("hot", "cold").
	class string
	// why describes a failure.
	why string
}

// phase is one measured stretch of ops.
type phase struct {
	results    []opResult
	elapsedS   float64
	allocBytes uint64
	// peakMB is the median over rssWindows slices of each slice's
	// highest resident set, taken while the phase's first minOps ops
	// ran. The resident set creeps up over a run, so a fixed amount of
	// work, not the time a faster host fills with more ops, bounds it.
	peakMB float64
}

// outcome is what finish derives from a phase.
type outcome struct {
	// failed counts ops found wrong after the phase (on top of the ops
	// that failed while running).
	failed int
	// digest hashes every simulated statistic the workload produced.
	digest string
	// speedups are baseline_ps/rcce_ps over the workload's fixed cells.
	speedups []float64
	notes    []string
}

var workloads = []*workload{corpusSweep, confKernels, daemonMix}

// endToEnd names every end-to-end metric with its unit. sim_speedup_geomean
// is simulated time; the rest are host measurements.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"ops_per_s", "op/s"}, {"p50_ms", "ms"}, {"tail_ms", "ms"},
	{"peak_rss_mb", "MB"}, {"alloc_mb_per_op", "MB/op"}, {"sim_speedup_geomean", "ratio"},
}

func (w *workload) workerCount() int {
	if w.workers == 0 {
		return runtime.NumCPU()
	}
	return w.workers
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: corpus-sweep, conf-kernels or daemon-mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per phase")
	traced := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	var (
		rep *report
		err error
	)
	if *traced == 1 {
		rep, err = runTraced(w, *seed, *seconds, stdout)
	} else {
		rep, err = runUntraced(w, *seed, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) print(out io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-26s %.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// setUp builds the workload n times and returns the last instance with
// each set-up's time in seconds. The first set-up is timed from start;
// each later one from a collected heap, after the previous copy closed.
func setUp(w *workload, seed int64, n int, start time.Time) (instance, []float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
			runtime.GC()
			start = time.Now()
		}
		var err error
		inst, err = w.setup(seed, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return inst, times, nil
}

// measure drives inst closed-loop from w.workers workers until seconds
// have passed and at least w.minOps ops finished, stopping only at a
// pass boundary. It samples the resident set while it runs.
func measure(w *workload, inst instance, seconds float64) *phase {
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		results []opResult
		// minOpsAt is when the minOps-th op finished.
		minOpsAt time.Duration
	)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	stopRSS := sampleRSS(start)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return 0, false
		}
		i := next
		if i >= w.minOps && i%w.passLen == 0 && time.Since(start).Seconds() >= seconds {
			stopped = true
			return 0, false
		}
		next++
		return i, true
	}
	var wg sync.WaitGroup
	for c := 0; c < w.workerCount(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				if w.passLen > 1 && i%w.passLen == 0 {
					// Every pass starts from the heap a fresh process
					// running one sweep would have.
					runtime.GC()
				}
				r := inst.op(i)
				mu.Lock()
				results = append(results, r)
				if len(results) == w.minOps {
					minOpsAt = time.Since(start)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	ph := &phase{results: results, elapsedS: elapsed.Seconds(), peakMB: windowPeakMB(stopRSS(), minOpsAt)}
	runtime.ReadMemStats(&ms1)
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return ph
}

func (ph *phase) latencies(class string) []float64 {
	var xs []float64
	for _, r := range ph.results {
		if class == "" || r.class == class {
			xs = append(xs, r.ms)
		}
	}
	return xs
}

func (ph *phase) failures() (n int, first string) {
	for _, r := range ph.results {
		if r.failed {
			if n == 0 {
				first = r.why
			}
			n++
		}
	}
	return n, first
}

func (ph *phase) opsPerS() float64 { return float64(len(ph.results)) / ph.elapsedS }

// runUntraced is the source of every end-to-end number.
func runUntraced(w *workload, seed int64, seconds float64, out io.Writer) (*report, error) {
	// Only the first set-up pays process start, so the median leaves
	// it out.
	inst, setupTimes, err := setUp(w, seed, setupRepeats-setupAfter, processStart)
	if err != nil {
		return nil, err
	}
	ph := measure(w, inst, seconds)
	oc, err := inst.finish(ph)
	inst.close()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	last, after, err := setUp(w, seed, setupAfter, time.Now())
	if err != nil {
		return nil, err
	}
	last.close()
	setupS := median(append(setupTimes, after...))
	rep := checked(w, ph, oc, out)

	lat := ph.latencies("")
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	p := tailPercentile(w.minOps)
	n := len(ph.results)
	fmt.Fprintf(out, "# %s seed=%d: %d ops in %.3f s on %d workers; tail is p%g (%d samples, %d beyond)\n",
		w.name, seed, n, ph.elapsedS, w.workerCount(), p, n, beyond(n, p))
	fmt.Fprintf(out, "# resident high-water mark of the whole process: %.1f MB\n", peakRSSMB())
	fmt.Fprintf(out, "# fail_ratio %g ratio (%d of %d)\n", float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	vals := map[string]float64{
		"setup_s":             setupS,
		"ops_per_s":           ph.opsPerS(),
		"p50_ms":              median(lat),
		"tail_ms":             percentile(sorted, p),
		"peak_rss_mb":         ph.peakMB,
		"alloc_mb_per_op":     float64(ph.allocBytes) / 1e6 / float64(n),
		"sim_speedup_geomean": geomean(oc.speedups),
	}
	rep.Metrics = map[string]metric{}
	for _, e := range endToEnd {
		rep.Metrics[e.name] = metric{vals[e.name], e.unit}
	}
	return rep, nil
}

// checked folds the phase's failures and the post-phase checks into the
// result line's counters and prints the digest.
func checked(w *workload, ph *phase, oc *outcome, out io.Writer) *report {
	failed, first := ph.failures()
	failed += oc.failed
	fmt.Fprintf(out, "# %s digest %s; sim_speedup_geomean over %d cells\n", w.name, oc.digest, len(oc.speedups))
	for _, n := range oc.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	if first != "" {
		fmt.Fprintf(out, "# first failure: %s\n", first)
	}
	attempted := len(ph.results)
	failed = min(failed, attempted)
	return &report{
		Correct:   failed == 0 && oc.digest != "",
		Attempted: attempted,
		Failed:    failed,
	}
}
