package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"hsmcc/internal/interp"
	"hsmcc/internal/partition"
	"hsmcc/internal/profile"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
)

// RunResult is one measured execution.
type RunResult struct {
	Workload string
	Mode     string // "pthread-1core", "rcce-offchip", "rcce-onchip", "rcce-profiled"
	Threads  int
	Makespan sccsim.Time
	Output   string
	Stats    sccsim.CoreStats
	// Switches counts context switches (Pthread baseline only).
	Switches uint64
	// TranslatedSource is the RCCE C program (RCCE modes only).
	TranslatedSource string
	// OnChipBytes is what Stage 4 placed in the MPB (RCCE modes only).
	OnChipBytes int
	// PlacementDigest fingerprints the profile-guided placement map
	// (profiled policy only; empty for the static policies).
	PlacementDigest string
}

// Seconds converts the makespan.
func (r *RunResult) Seconds() float64 { return float64(r.Makespan) / sccsim.PsPerSecond }

// Digest fingerprints the run's simulated results as a hex sha256 over
// the output, the makespan, the context switches and every field of the
// cycle statistics. Golden tests pin it: any change to simulated
// behaviour changes the digest.
func (r *RunResult) Digest() string {
	h := sha256.New() // writes to a hash never fail
	binary.Write(h, binary.LittleEndian, [2]uint64{r.Makespan, r.Switches})
	binary.Write(h, binary.LittleEndian, r.Stats)
	h.Write([]byte(r.Output))
	return hex.EncodeToString(h.Sum(nil))
}

// Config parameterises harness runs.
type Config struct {
	// Threads is the thread count for the baseline and the UE count for
	// RCCE runs (the paper uses 32 for both).
	Threads int
	// Scale shrinks/grows problem sizes (1.0 = full experiment size).
	Scale float64
	// Baseline holds the single-core Pthread runtime options.
	Baseline pthreadrt.Options
	// Machine returns a fresh machine per run (timing state such as
	// controller queues must not leak between runs).
	Machine func() *sccsim.Machine
	// MPBCapacity overrides the Stage 4 on-chip budget (0 = the
	// machine's full MPB). The partition-policy ablation uses a small
	// budget to create placement pressure.
	MPBCapacity int
	// RCCE overrides the runtime options per UE count (nil = defaults).
	// The MPB-placement ablation disables striping through this hook.
	RCCE func(numUEs int) rcce.Options
	// TransformRCCE, when non-nil, rewrites the translated C source
	// between Stage 5 and re-parsing. The conformance engine uses it to
	// inject translator faults and prove the differential oracle catches
	// them; nil is the identity.
	TransformRCCE func(src string) (string, error)
	// Engine is ignored: the compiled engine is the only engine.
	//
	// Deprecated: kept for source compatibility; nothing reads it.
	Engine interp.Engine
	// Cache, when non-nil, memoizes the compile-side stages (source
	// compile and translation) so one compiled Program serves every
	// cell — and every concurrent worker — with the same source. The
	// grid runner and the conformance oracle install one.
	Cache *Cache
	// Cancel, when non-nil, is polled at every scheduling decision of
	// every simulation this config runs (baseline, RCCE, profiling): a
	// non-nil return aborts the run promptly with that error. It is
	// per-request state, never part of any cache identity — the serving
	// layer wires a request context's Err here so deadlines and client
	// disconnects stop simulations mid-flight.
	Cancel func() error
	// Fault, when non-nil, is invoked at the entry of every compute
	// stage this config runs — "compile", "translate", "baseline",
	// "simulate", "profile" — before the stage does any work. It is the
	// chaos-injection seam (internal/serve/chaos): the hook may sleep
	// (injected delay), panic (injected crash, recovered into a
	// *PanicError at the nearest isolation boundary) or return an error
	// (spurious cancellation). It fires inside memoized computations, so
	// the cache's drop-on-error discipline is what a fault exercises.
	// Like Cancel it is per-request state, never part of any cache
	// identity.
	Fault func(stage string) error
	// Span, when non-nil, is invoked at the entry of every compute stage
	// this config actually executes — same stage names as Fault — and the
	// returned func at its exit. It is the request-tracing seam
	// (internal/serve spans): because it fires inside the memoized
	// computations, a cache hit produces no compute span, which is
	// exactly what a request timeline should show. Like Cancel and Fault
	// it is per-request state, never part of any cache identity.
	Span func(stage string) func()
	// TraceRCCE, when non-nil, receives the scheduling/memory event
	// stream of the RCCE simulation (the un-memoized half of a run; see
	// internal/trace.Recorder). Observation only: simulation output and
	// cycle stats are identical with or without it, so like the other
	// per-run observers it is excluded from every cache identity.
	TraceRCCE interp.TraceSink
	// machineEnv, when non-empty, is a precomputed fingerprint of
	// cfg.Machine().Config() — sweeps whose machine is fixed (the grid
	// runner) set it once so cache-key construction does not build a
	// throwaway machine per lookup.
	machineEnv string
}

// DefaultConfig is the paper's configuration: 32 threads/cores, full
// problem sizes, Table 6.1 machine.
func DefaultConfig() Config {
	return Config{
		Threads:  32,
		Scale:    1.0,
		Baseline: pthreadrt.DefaultOptions(),
		Machine:  func() *sccsim.Machine { return sccsim.MustNew(sccsim.DefaultConfig()) },
	}
}

// fault fires cfg's fault-injection hook for one compute stage.
func (cfg Config) fault(stage string) error {
	if cfg.Fault == nil {
		return nil
	}
	return cfg.Fault(stage)
}

// span opens a stage span when cfg carries the tracing seam; the
// returned func closes it and is never nil.
func (cfg Config) span(stage string) func() {
	if cfg.Span == nil {
		return func() {}
	}
	return cfg.Span(stage)
}

// rcceOptions resolves the effective RCCE runtime options for cfg.
func (cfg Config) rcceOptions() rcce.Options {
	ropts := rcce.DefaultOptions(cfg.Threads)
	if cfg.RCCE != nil {
		ropts = cfg.RCCE(cfg.Threads)
	}
	ropts.Cancel = cfg.Cancel
	ropts.Trace = cfg.TraceRCCE
	return ropts
}

// baselineEnv fingerprints the parts of the environment a baseline run
// depends on beyond (workload, threads, scale): the machine configuration
// and the baseline runtime options. It completes the
// cross-cell memoization key — two cells may share a baseline result
// only when every input of that run is identical.
func (cfg Config) baselineEnv() string {
	opts := cfg.Baseline
	// Per-run observers are not semantic identity, and a non-nil func
	// would render as a pointer — nondeterministic across processes.
	opts.Cancel = nil
	opts.Profiler = nil
	opts.Trace = nil
	return fmt.Sprintf("%s|%+v", cfg.machineFingerprint(), opts)
}

// machineFingerprint renders the machine configuration for cache keys,
// preferring the precomputed copy over constructing a throwaway machine
// per lookup.
func (cfg Config) machineFingerprint() string {
	if cfg.machineEnv != "" {
		return cfg.machineEnv
	}
	return fmt.Sprintf("%+v", cfg.Machine().Config())
}

// PrecomputeMachineEnv returns a copy of cfg carrying the machine-config
// fingerprint, built once here. Harnesses that derive many cell configs
// from one template over a fixed machine (the grid runner, the
// conformance oracle) call this on the template so per-cell cache-key
// construction never builds a throwaway machine.
func (cfg Config) PrecomputeMachineEnv() Config {
	cfg.machineEnv = cfg.machineFingerprint()
	return cfg
}

// rcceEnv fingerprints the profiling-run environment: the machine
// configuration plus the effective RCCE options (which carry the
// core mapping and oversubscription mode).
func (cfg Config) rcceEnv() string {
	ropts := cfg.rcceOptions()
	// Same exclusion as baselineEnv: per-run observers and the cancel
	// hook are request state, not cache identity.
	ropts.Cancel = nil
	ropts.Profiler = nil
	ropts.AllocObserver = nil
	ropts.Trace = nil
	return fmt.Sprintf("%s|%+v", cfg.machineFingerprint(), ropts)
}

// CompileBaseline compiles (or fetches from the cache) the unconverted
// Pthread program for cfg's thread count and scale. The returned Program
// is immutable — one compile serves any number of concurrent runs.
func CompileBaseline(w Workload, cfg Config) (*interp.Program, error) {
	src := w.Source(cfg.Threads, cfg.Scale)
	pr, err := cfg.Cache.program(w.Key+".c", src, cfg.Fault, cfg.Span)
	if err != nil {
		return nil, fmt.Errorf("%s baseline: %w", w.Key, err)
	}
	return pr, nil
}

// RunBaselineProgram executes an already-compiled baseline program: all
// threads time-share one SCC core (thesis Chapter 6's baseline).
func RunBaselineProgram(w Workload, pr *interp.Program, cfg Config) (*RunResult, error) {
	if err := cfg.fault("baseline"); err != nil {
		return nil, fmt.Errorf("%s baseline: %w", w.Key, err)
	}
	defer cfg.span("baseline")()
	opts := cfg.Baseline
	opts.Cancel = cfg.Cancel
	res, err := pthreadrt.Run(pr, cfg.Machine(), opts)
	if err != nil {
		return nil, fmt.Errorf("%s baseline: %w", w.Key, err)
	}
	return &RunResult{
		Workload: w.Key,
		Mode:     "pthread-1core",
		Threads:  cfg.Threads,
		Makespan: res.Makespan,
		Output:   res.Output,
		Stats:    res.Stats,
		Switches: res.Switches,
	}, nil
}

// RunBaseline measures the unconverted Pthread program. With a Cache in
// cfg both the compile AND the execution are memoized: the baseline is
// a pure function of (workload, threads, scale, machine+runtime options),
// so every policy and budget cell of a sweep at the same configuration
// shares one run instead of recomputing it.
func RunBaseline(w Workload, cfg Config) (*RunResult, error) {
	if cfg.Cache != nil {
		return cfg.Cache.baselineRun(w, cfg)
	}
	return runBaselineUncached(w, cfg)
}

// runBaselineUncached is the compute half of RunBaseline.
func runBaselineUncached(w Workload, cfg Config) (*RunResult, error) {
	pr, err := CompileBaseline(w, cfg)
	if err != nil {
		return nil, err
	}
	return RunBaselineProgram(w, pr, cfg)
}

// Translation is the compiled outcome of the five-stage pipeline for one
// placement: the emitted RCCE C source (after any TransformRCCE hook),
// its immutable compiled Program, and the Stage 4 on-chip footprint.
type Translation struct {
	Source      string
	Program     *interp.Program
	OnChipBytes int
	// Placement is the profile-guided placement the translation applied
	// (profiled policy only; nil for the static policies).
	Placement *profile.Placement
}

// TranslateWorkload runs the translate pipeline for one cell and
// compiles the emitted source, reusing cfg.Cache for both stages: the
// pipeline is keyed by (workload, threads, scale, policy, capacity,
// placement digest) and the compile by the emitted text, so cells whose
// placements print identical programs share one compiled image. For the
// profiled policy it first obtains the workload's access profile
// (memoized per configuration) and optimizes the placement for the
// cell's effective budget.
func TranslateWorkload(w Workload, cfg Config, policy partition.Policy) (*Translation, error) {
	capacity := cfg.MPBCapacity
	if capacity <= 0 {
		capacity = cfg.Machine().Config().MPBTotal()
	}
	scale := cfg.Scale
	var pl *profile.Placement
	if policy == partition.PolicyProfiled {
		var err error
		pl, err = PlacementFor(w, cfg, capacity)
		if err != nil {
			return nil, err
		}
	}
	if policy == partition.PolicyOffChipOnly {
		// Stage 4 ignores the capacity when everything goes off-chip;
		// normalising the cache identity lets every budget share one
		// pipeline run.
		capacity = 0
	}
	tr, err := cfg.Cache.translate(w, cfg.Threads, scale, policy, capacity, pl, cfg.machineFingerprint(), cfg.Fault, cfg.Span)
	if err != nil {
		return nil, err
	}
	translated := tr.source
	if cfg.TransformRCCE != nil {
		translated, err = cfg.TransformRCCE(translated)
		if err != nil {
			return nil, fmt.Errorf("%s transform translated source: %w", w.Key, err)
		}
	}
	pr, err := cfg.Cache.program(w.Key+"_rcce.c", translated, cfg.Fault, cfg.Span)
	if err != nil {
		return nil, fmt.Errorf("%s reparse translated source: %w\n---\n%s", w.Key, err, translated)
	}
	return &Translation{Source: translated, Program: pr, OnChipBytes: tr.onChipBytes, Placement: pl}, nil
}

// RunRCCEProgram executes a translated program with one process per UE.
func RunRCCEProgram(w Workload, tr *Translation, cfg Config, policy partition.Policy) (*RunResult, error) {
	if err := cfg.fault("simulate"); err != nil {
		return nil, fmt.Errorf("%s simulate: %w", w.Key, err)
	}
	defer cfg.span("simulate")()
	mode := "rcce-offchip"
	switch policy {
	case partition.PolicyOffChipOnly:
	case partition.PolicyProfiled:
		mode = "rcce-profiled"
	default:
		mode = "rcce-onchip"
	}
	ropts := cfg.rcceOptions()
	res, err := rcce.Run(tr.Program, cfg.Machine(), ropts)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", w.Key, mode, err)
	}
	r := &RunResult{
		Workload:         w.Key,
		Mode:             mode,
		Threads:          cfg.Threads,
		Makespan:         res.Makespan,
		Output:           res.Output,
		Stats:            res.Stats,
		TranslatedSource: tr.Source,
		OnChipBytes:      tr.OnChipBytes,
	}
	if tr.Placement != nil {
		r.PlacementDigest = tr.Placement.Digest()
	}
	return r, nil
}

// RunRCCE translates the Pthread program through the five-stage pipeline
// with the given Stage 4 policy, re-parses the emitted C source (so the
// experiment exercises exactly what the translator prints), and executes
// it with one process per core.
func RunRCCE(w Workload, cfg Config, policy partition.Policy) (*RunResult, error) {
	tr, err := TranslateWorkload(w, cfg, policy)
	if err != nil {
		return nil, err
	}
	return RunRCCEProgram(w, tr, cfg, policy)
}

// BothResult pairs one baseline execution with one translated execution
// of the same workload — the unit of differential validation.
type BothResult struct {
	Baseline *RunResult
	RCCE     *RunResult
	// Match reports whether both backends printed the same distinct
	// result lines (see SameResults).
	Match bool
}

// RunBothBackends runs w through the single-core Pthread baseline and
// through the full translate→RCCE→sccsim pipeline under the given
// Stage 4 policy, then compares their outputs. This is the validation
// path shared by the experiment figures, the grid runner and the
// conformance engine.
func RunBothBackends(w Workload, cfg Config, policy partition.Policy) (*BothResult, error) {
	base, err := RunBaseline(w, cfg)
	if err != nil {
		return nil, err
	}
	conv, err := RunRCCE(w, cfg, policy)
	if err != nil {
		return nil, err
	}
	return &BothResult{
		Baseline: base,
		RCCE:     conv,
		Match:    SameResults(base.Output, conv.Output),
	}, nil
}

// DistinctLines returns the sorted set of distinct non-empty lines.
func DistinctLines(s string) []string {
	seen := make(map[string]bool)
	for _, l := range strings.Split(s, "\n") {
		if l != "" {
			seen[l] = true
		}
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// SameResults reports whether two runs computed the same answer: the
// baseline prints each result line once, the RCCE program prints it once
// per core, so we compare distinct line sets.
func SameResults(base, rcceOut string) bool {
	a, b := DistinctLines(base), DistinctLines(rcceOut)
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

// Speedup is baseline time over converted time.
func Speedup(base, conv *RunResult) float64 {
	if conv.Makespan == 0 {
		return 0
	}
	return float64(base.Makespan) / float64(conv.Makespan)
}
