package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"hsmcc/internal/bench"
	"hsmcc/internal/rcce"
)

// Matrix is the (cores × oversubscription × placement policy × MPB
// budget) sweep every kernel is checked across. It mirrors the grid
// axes of internal/bench: policy names parse with bench.ParsePolicy and
// budget 0 means the machine's full MPB.
type Matrix struct {
	Cores    []int
	Policies []string
	Budgets  []int
	// Oversub lists §7.2 many-to-one factors: factor f > 1 runs
	// f×cores UEs assigned round-robin onto the cores (the runtime's
	// AllowOversubscribe mode, time-multiplexed with context-switch
	// costs); factor 1 is the one-UE-per-core default. Empty means [1].
	Oversub []int
}

// DefaultMatrix covers both launch shapes (2 and 4 UEs), all four
// Stage 4 policies — the three static heuristics plus the
// profile-guided `profiled` placement, whose profiling pass and
// optimizer thereby face every generated kernel shape — an
// unconstrained and a pressure-inducing MPB budget, and both the 1:1
// and the §7.2 two-UEs-per-core mapping: the smallest sweep that
// exercises every placement and scheduling decision the paper's claim
// quantifies over.
func DefaultMatrix() Matrix {
	return Matrix{
		Cores:    []int{2, 4},
		Policies: []string{"offchip", "size", "freq", "profiled"},
		Budgets:  []int{0, 512},
		Oversub:  []int{1, 2},
	}
}

// SmokeMatrix is the minimal sweep used by the fuzz target, where
// per-input cost dominates throughput.
func SmokeMatrix() Matrix {
	return Matrix{
		Cores:    []int{2},
		Policies: []string{"offchip", "size"},
		Budgets:  []int{0},
	}
}

// factors returns the oversubscription axis ([1] when unset).
func (m Matrix) factors() []int {
	if len(m.Oversub) == 0 {
		return []int{1}
	}
	return m.Oversub
}

// Cells returns the matrix's RCCE cell count (per kernel, excluding the
// one baseline run per (cores, factor) value).
func (m Matrix) Cells() int {
	return len(m.Cores) * len(m.factors()) * len(m.Policies) * len(m.Budgets)
}

// ParseMatrix builds a validated matrix from the comma-separated flag
// syntax shared by hsmconf and the docs ("2,4", "offchip,size,freq",
// "0,512", "1,2").
func ParseMatrix(cores, policies, budgets, oversub string) (Matrix, error) {
	var m Matrix
	for _, s := range strings.Split(cores, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return m, fmt.Errorf("bad cores value %q: %w", s, err)
		}
		m.Cores = append(m.Cores, v)
	}
	for _, s := range strings.Split(policies, ",") {
		m.Policies = append(m.Policies, strings.TrimSpace(s))
	}
	for _, s := range strings.Split(budgets, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return m, fmt.Errorf("bad budgets value %q: %w", s, err)
		}
		m.Budgets = append(m.Budgets, v)
	}
	if oversub != "" {
		for _, s := range strings.Split(oversub, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return m, fmt.Errorf("bad oversub value %q: %w", s, err)
			}
			m.Oversub = append(m.Oversub, v)
		}
	}
	return m, m.Validate()
}

// Validate rejects malformed matrices before simulation time is spent.
func (m Matrix) Validate() error {
	if len(m.Cores) == 0 || len(m.Policies) == 0 || len(m.Budgets) == 0 {
		return fmt.Errorf("conformance: matrix needs at least one cores value, policy and budget")
	}
	for _, c := range m.Cores {
		if c < 1 || c > 48 {
			return fmt.Errorf("conformance: cores %d out of range [1,48]", c)
		}
	}
	for _, p := range m.Policies {
		if _, err := bench.ParsePolicy(p); err != nil {
			return err
		}
	}
	for _, b := range m.Budgets {
		if b < 0 {
			return fmt.Errorf("conformance: negative MPB budget %d", b)
		}
	}
	for _, f := range m.Oversub {
		if f < 1 || f > 8 {
			return fmt.Errorf("conformance: oversubscription factor %d out of range [1,8]", f)
		}
	}
	return nil
}

// Divergence is one failed differential check: the cell, both outputs,
// and everything needed to reproduce it from the log line alone.
type Divergence struct {
	Seed   int64  `json:"seed"`
	Cores  int    `json:"cores"`
	Policy string `json:"policy"`
	Budget int    `json:"budget"`
	// Oversub is the §7.2 many-to-one factor of the failing cell
	// (0 or 1: one UE per core).
	Oversub int `json:"oversub,omitempty"`
	// Synth marks a synthetic-generator kernel (hsmconf -synth); Seed
	// then reproduces via synth.ParamsForSeed and SynthKey carries the
	// exact parameter vector (which for shrunken vectors is no longer
	// seed-derived).
	Synth    bool   `json:"synth,omitempty"`
	SynthKey string `json:"synth_key,omitempty"`
	BaseOut  string `json:"base_out,omitempty"`
	RCCEOut string `json:"rcce_out,omitempty"`
	// Err is set when a pipeline stage failed outright (parse, sema,
	// translate, execution) rather than producing divergent output.
	Err string `json:"err,omitempty"`
	// Source is the Pthread kernel; Translated the (possibly mutated)
	// RCCE program it became.
	Source     string `json:"source,omitempty"`
	Translated string `json:"translated,omitempty"`
}

// String is the one-line failure report. It leads with the explicit
// seed and cell so any reported failure is reproducible from the log:
//
//	hsmconf -seed <seed> -n 1 -cores <cores> -policies <policy> -budgets <budget> -oversub <factor>
func (d *Divergence) String() string {
	what := "output divergence"
	if d.Err != "" {
		what = "error: " + d.Err
	}
	f := d.Oversub
	if f < 1 {
		f = 1
	}
	mode := ""
	if d.Synth {
		mode = "-synth "
	}
	return fmt.Sprintf("seed=%d cores=%d oversub=%d policy=%s budget=%d: %s (repro: hsmconf %s-seed %d -n 1 -cores %d -oversub %d -policies %s -budgets %d)",
		d.Seed, d.Cores, f, d.Policy, d.Budget, what, mode, d.Seed, d.Cores, f, d.Policy, d.Budget)
}

// Engine runs kernels through both backends across a matrix.
type Engine struct {
	Matrix Matrix
	Gen    GenOptions
	// Mutate, when non-nil, corrupts the translated RCCE source before
	// it is re-parsed and executed — the fault-injection seam used to
	// prove the oracle catches translator bugs.
	Mutate func(src string) string

	// cfgOnce/baseCfg cache the harness config template with its
	// machine fingerprint precomputed, so the thousands of cell configs
	// a soak derives from it never build a machine just for cache keys.
	cfgOnce sync.Once
	baseCfg bench.Config
}

// NewEngine returns an engine over the default matrix and generator.
func NewEngine() *Engine {
	return &Engine{Matrix: DefaultMatrix(), Gen: DefaultGenOptions()}
}

// config assembles the bench harness configuration for one cell. The
// cache — typically one per kernel — lets every matrix cell share the
// kernel's compiled baseline Program and each distinct translated
// source's compiled image (compile once, run the whole matrix).
func (e *Engine) config(cores, budget int, cache *bench.Cache) bench.Config {
	e.cfgOnce.Do(func() { e.baseCfg = bench.DefaultConfig().PrecomputeMachineEnv() })
	cfg := e.baseCfg
	cfg.Threads = cores
	cfg.MPBCapacity = budget
	cfg.Cache = cache
	if e.Mutate != nil {
		mut := e.Mutate
		cfg.TransformRCCE = func(src string) (string, error) { return mut(src), nil }
	}
	return cfg
}

// workload wraps fixed kernel source as a bench workload. The source is
// already emitted for the right thread count, so the harness parameters
// are ignored.
func kernelWorkload(seed int64, src string) bench.Workload {
	return bench.Workload{
		Key:    fmt.Sprintf("gen%d", seed),
		Name:   fmt.Sprintf("generated kernel %d", seed),
		Class:  "conformance",
		Source: func(threads int, scale float64) string { return src },
	}
}

// oversubOptions maps factor×cores UEs round-robin onto cores cores in
// the runtime's §7.2 many-to-one mode.
func oversubOptions(cores, factor int) func(int) rcce.Options {
	return func(n int) rcce.Options {
		o := rcce.DefaultOptions(n)
		ues := make([]int, cores*factor)
		for i := range ues {
			ues[i] = i % cores
		}
		o.Cores = ues
		o.AllowOversubscribe = true
		return o
	}
}

// cellConfig assembles the harness configuration for one cell: the UE
// count is cores×oversub, and an oversubscribed cell installs the
// many-to-one runtime mapping.
func (e *Engine) cellConfig(cores, budget, oversub int, cache *bench.Cache) bench.Config {
	ues := cores * max(oversub, 1)
	cfg := e.config(ues, budget, cache)
	if oversub > 1 {
		cfg.RCCE = oversubOptions(cores, oversub)
	}
	return cfg
}

// CheckCell runs spec through both backends at one matrix cell and
// returns the divergence, or nil when the backends agree.
func (e *Engine) CheckCell(spec *Spec, cores int, policy string, budget, oversub int) *Divergence {
	ues := cores * max(oversub, 1)
	return e.CheckSource(spec.Seed, spec.Source(ues), cores, policy, budget, oversub)
}

// CheckSource differentially checks fixed kernel source at one cell —
// the entry point for replaying persisted corpus kernels, where the .c
// file rather than the generator is the source of truth. The source
// must already be emitted for cores×oversub threads.
func (e *Engine) CheckSource(seed int64, src string, cores int, policy string, budget, oversub int) *Divergence {
	div := &Divergence{Seed: seed, Cores: cores, Policy: policy, Budget: budget, Oversub: oversub, Source: src}
	pol, err := bench.ParsePolicy(policy)
	if err != nil {
		div.Err = err.Error()
		return div
	}
	cfg := e.cellConfig(cores, budget, oversub, bench.NewCache())
	both, err := bench.RunBothBackends(kernelWorkload(seed, src), cfg, pol)
	if err != nil {
		div.Err = err.Error()
		return div
	}
	if both.Match {
		return nil
	}
	div.BaseOut = both.Baseline.Output
	div.RCCEOut = both.RCCE.Output
	div.Translated = both.RCCE.TranslatedSource
	return div
}

// Check runs spec across the whole matrix, compiling the kernel once
// per cores value and sharing one baseline run, and returns the first
// divergence (cores-ascending, policy-major) or nil. Sharing matters
// twice over: the matrix's RCCE cells all diff against the same
// reference execution, and the per-kernel compile cache means the
// baseline source and each distinct translated source compile exactly
// once for the whole matrix instead of once per cell.
func (e *Engine) Check(spec *Spec) *Divergence {
	return e.checkMatrix(spec.Seed, spec.Source, nil)
}

// checkMatrix is the matrix loop shared by the spec oracle (Check) and
// the synthetic-vector oracle (CheckSynth): srcFor emits the kernel for
// a UE count, and the sweep walks every (cores, oversub, policy,
// budget) cell. When sum is non-nil, every run's result digest is
// written to it in sweep order, so one kernel's matrix folds into one
// golden digest without a second pass.
func (e *Engine) checkMatrix(seed int64, srcFor func(ues int) string, sum hash.Hash) *Divergence {
	cache := bench.NewCache()
	for _, cores := range e.Matrix.Cores {
		for _, factor := range e.Matrix.factors() {
			ues := cores * factor
			src := srcFor(ues)
			w := kernelWorkload(seed, src)
			base, err := bench.RunBaseline(w, e.cellConfig(cores, 0, factor, cache))
			if err != nil {
				return &Divergence{Seed: seed, Cores: cores, Oversub: factor,
					Policy: e.Matrix.Policies[0], Budget: e.Matrix.Budgets[0],
					Source: src, Err: "baseline: " + err.Error()}
			}
			if sum != nil {
				fmt.Fprintln(sum, base.Digest())
			}
			for _, policy := range e.Matrix.Policies {
				pol, err := bench.ParsePolicy(policy)
				if err != nil {
					return &Divergence{Seed: seed, Cores: cores, Oversub: factor,
						Policy: policy, Source: src, Err: err.Error()}
				}
				for _, budget := range e.Matrix.Budgets {
					div := &Divergence{Seed: seed, Cores: cores, Oversub: factor,
						Policy: policy, Budget: budget, Source: src}
					conv, err := bench.RunRCCE(w, e.cellConfig(cores, budget, factor, cache), pol)
					if err != nil {
						div.Err = err.Error()
						return div
					}
					if sum != nil {
						fmt.Fprintln(sum, conv.Digest())
					}
					if !bench.SameResults(base.Output, conv.Output) {
						div.BaseOut = base.Output
						div.RCCEOut = conv.Output
						div.Translated = conv.TranslatedSource
						return div
					}
				}
			}
		}
	}
	return nil
}

// SpecForSeed deterministically derives kernel i of a run: the kernel's
// own seed is base+i, so a failure in kernel 137 of a 10k-kernel soak
// reproduces directly via -seed base+137 -n 1.
func SpecForSeed(seed int64, opts GenOptions) *Spec {
	s := Generate(rand.New(rand.NewSource(seed)), opts)
	s.Seed = seed
	return s
}

// Failure is one failed kernel with its shrunken reproducer.
type Failure struct {
	Seed      int64       `json:"seed"`
	Div       *Divergence `json:"divergence"`
	Spec      *Spec       `json:"spec"`
	Minimized *Spec       `json:"minimized,omitempty"`
	MinSource string      `json:"min_source,omitempty"`
}

// Report summarises an engine run.
type Report struct {
	BaseSeed int64
	Kernels  int
	Failures []*Failure
	// Digests maps each checked kernel's seed to the sha256 of its
	// matrix's run digests (see checkMatrix).
	Digests map[int64]string
}

// checkDigest is checkMatrix with the kernel's matrix digest.
func (e *Engine) checkDigest(seed int64, srcFor func(ues int) string) (*Divergence, string) {
	h := sha256.New()
	div := e.checkMatrix(seed, srcFor, h)
	return div, hex.EncodeToString(h.Sum(nil))
}

// Run generates and checks n kernels with seeds base..base+n-1 across a
// worker pool, shrinking any failures to minimal reproducers. logf, when
// non-nil, receives one line per failure as it happens.
func (e *Engine) Run(base int64, n, parallel int, logf func(format string, args ...any)) *Report {
	if parallel < 1 {
		parallel = 1
	}
	rep := &Report{BaseSeed: base, Kernels: n, Digests: make(map[int64]string, n)}
	var mu sync.Mutex
	jobs := make(chan int64)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range jobs {
				spec := SpecForSeed(seed, e.Gen)
				div, digest := e.checkDigest(seed, spec.Source)
				mu.Lock()
				rep.Digests[seed] = digest
				mu.Unlock()
				if div == nil {
					continue
				}
				min := e.Shrink(spec, div)
				f := &Failure{Seed: seed, Div: div, Spec: spec, Minimized: min,
					MinSource: min.Source(div.Cores)}
				mu.Lock()
				rep.Failures = append(rep.Failures, f)
				mu.Unlock()
				if logf != nil {
					logf("conformance: FAIL %s\nminimized (%d lines):\n%s",
						div, strings.Count(f.MinSource, "\n"), f.MinSource)
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
