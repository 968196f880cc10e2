package bench

// The parallel experiment grid: the (workload x cores x policy x
// MPB-budget) sweep behind the paper's evaluation, run concurrently
// across goroutines. Each simulated SCC machine is independent, so
// cells parallelise perfectly; results are placed by cell index, which
// makes the output deterministic regardless of worker count — the
// property TestGridDeterminism pins down to byte-identical JSON.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"hsmcc/internal/partition"
	"hsmcc/internal/sccsim"
	"hsmcc/internal/trace"
)

// Grid is the declarative spec of one experiment sweep.
type Grid struct {
	// Name labels the emitted report (BENCH_<Name>.json).
	Name string `json:"name"`
	// Workloads are workload keys (see All); empty = the full corpus.
	Workloads []string `json:"workloads"`
	// Cores are the thread/core counts to sweep.
	Cores []int `json:"cores"`
	// Policies are Stage 4 policy names: "offchip", "size", "freq", or
	// "profiled" (profile-guided placement; each profiled cell first
	// takes a memoized profiling pass at its (workload, cores) point).
	Policies []string `json:"policies"`
	// MPBBudgets are Stage 4 on-chip byte budgets; 0 = the machine's
	// full MPB. Empty = [0].
	MPBBudgets []int `json:"mpb_budgets"`
	// Scale is the problem-size multiplier (0 = 1.0).
	Scale float64 `json:"scale"`
	// Machine names the simulated machine preset for every cell
	// (sccsim.PresetNames; "" = the SCC default, scc48). Core counts in
	// Cores must fit the preset's core count.
	Machine string `json:"machine,omitempty"`
}

// DefaultGrid is the full paper sweep: every workload, the Fig 6.3 core
// counts, both Stage 4 placements, full MPB budget.
func DefaultGrid() Grid {
	var keys []string
	for _, w := range All() {
		keys = append(keys, w.Key)
	}
	return Grid{
		Name:      "paper",
		Workloads: keys,
		Cores:     []int{1, 2, 4, 8, 16, 32},
		Policies:  []string{"offchip", "size"},
		Scale:     1.0,
	}
}

// ParsePolicy maps the CLI/JSON policy names (shared with cmd/hsmcc) to
// Stage 4 policies.
func ParsePolicy(name string) (partition.Policy, error) {
	switch name {
	case "size":
		return partition.PolicySizeAscending, nil
	case "freq":
		return partition.PolicyFrequencyDensity, nil
	case "offchip":
		return partition.PolicyOffChipOnly, nil
	case "profiled":
		return partition.PolicyProfiled, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want size, freq, offchip or profiled)", name)
}

// Cell is one point of the grid.
type Cell struct {
	// Index is the cell's position in the deterministic enumeration of
	// the full (unsharded) grid.
	Index     int    `json:"index"`
	Workload  string `json:"workload"`
	Cores     int    `json:"cores"`
	Policy    string `json:"policy"`
	MPBBudget int    `json:"mpb_budget"`
}

// Cells enumerates the grid in deterministic workload-major order:
// workload, then cores, then policy, then budget.
func (g Grid) Cells() []Cell {
	budgets := g.MPBBudgets
	if len(budgets) == 0 {
		budgets = []int{0}
	}
	workloads := g.Workloads
	if len(workloads) == 0 {
		for _, w := range All() {
			workloads = append(workloads, w.Key)
		}
	}
	var cells []Cell
	for _, wk := range workloads {
		for _, n := range g.Cores {
			for _, pol := range g.Policies {
				for _, b := range budgets {
					cells = append(cells, Cell{
						Index:     len(cells),
						Workload:  wk,
						Cores:     n,
						Policy:    pol,
						MPBBudget: b,
					})
				}
			}
		}
	}
	return cells
}

// Validate rejects specs that reference unknown workloads or policies
// before any simulation time is spent.
func (g Grid) Validate() error {
	if len(g.Cores) == 0 {
		return fmt.Errorf("grid %q: no core counts", g.Name)
	}
	if len(g.Policies) == 0 {
		return fmt.Errorf("grid %q: no policies", g.Name)
	}
	for _, wk := range g.Workloads {
		if _, ok := ByKey(wk); !ok {
			return fmt.Errorf("grid %q: unknown workload %q", g.Name, wk)
		}
	}
	for _, p := range g.Policies {
		if _, err := ParsePolicy(p); err != nil {
			return fmt.Errorf("grid %q: %w", g.Name, err)
		}
	}
	for _, b := range g.MPBBudgets {
		if b < 0 {
			return fmt.Errorf("grid %q: negative MPB budget %d (use 0 for the full MPB)", g.Name, b)
		}
	}
	mcfg, err := sccsim.PresetConfig(g.Machine)
	if err != nil {
		return fmt.Errorf("grid %q: %w", g.Name, err)
	}
	for _, n := range g.Cores {
		if n > mcfg.Cores {
			return fmt.Errorf("grid %q: %d cores exceed machine %q (%d cores)",
				g.Name, n, g.MachineName(), mcfg.Cores)
		}
	}
	return nil
}

// MachineName resolves the grid's machine preset name ("" = scc48).
func (g Grid) MachineName() string {
	if g.Machine == "" {
		return "scc48"
	}
	return g.Machine
}

// CellResult is the machine-readable outcome of one cell: the baseline
// and translated timings, the correctness check, and the simulator
// counters that explain the placement effect.
type CellResult struct {
	Cell
	// BaselinePs/RCCEPs are simulated makespans in picoseconds — exact
	// integers, so reports diff cleanly across runs.
	BaselinePs uint64 `json:"baseline_ps"`
	RCCEPs     uint64 `json:"rcce_ps"`
	// Speedup is BaselinePs/RCCEPs.
	Speedup float64 `json:"speedup"`
	// Match is the end-to-end validation: the translated RCCE program
	// printed the same distinct result lines as the Pthread baseline.
	Match bool `json:"match"`
	// OnChipBytes is what Stage 4 placed in the MPB.
	OnChipBytes int `json:"onchip_bytes"`
	// PlacementDigest fingerprints the profile-guided placement map
	// (profiled cells only).
	PlacementDigest string `json:"placement_digest,omitempty"`
	// MPBAccesses/SharedAccesses are the RCCE run's memory counters.
	MPBAccesses    uint64 `json:"mpb_accesses"`
	SharedAccesses uint64 `json:"shared_accesses"`
	// Error is set (and the metrics zero) if the cell failed.
	Error string `json:"error,omitempty"`
	// Cached reports whether the semantic result is shared with an
	// earlier-indexed identical cell (e.g. budget 0 vs the explicit
	// full MPB). Determined by enumeration order, not execution order,
	// so reports stay byte-identical across worker counts.
	Cached bool `json:"cached"`
}

// RunOptions controls grid execution.
type RunOptions struct {
	// Parallel is the worker count (<=0 = GOMAXPROCS).
	Parallel int
	// ShardIndex/ShardCount select every ShardCount-th cell starting at
	// ShardIndex (round-robin over the deterministic enumeration), so n
	// machines each running shard i/n cover the grid exactly once.
	// ShardCount <= 1 disables sharding.
	ShardIndex, ShardCount int
	// Cache, when non-nil, replaces the per-sweep compile cache: the
	// serving daemon passes its process-lifetime cache here so grid
	// requests reuse (and warm) compiles, baselines and profiles across
	// requests.
	Cache *Cache
	// Cancel, when non-nil, is polled before each cell starts and at
	// every scheduling decision inside each simulation; once it returns
	// non-nil, remaining cells are marked with that error instead of
	// running.
	Cancel func() error
	// Fault, when non-nil, is the chaos-injection seam threaded into
	// every cell's Config (see Config.Fault): it fires at the named
	// compute stages inside the memoized closures, so injected panics
	// and cancellations exercise the cache's drop-on-error discipline.
	Fault func(stage string) error
	// OnResult, when non-nil, receives every finished cell in
	// deterministic index order (a reorder buffer sequences the
	// concurrent workers), before RunGrid returns. Callbacks are
	// serialized — the daemon streams NDJSON straight from here.
	OnResult func(CellResult)
	// TraceDir, when non-empty, attaches a trace.Recorder to every
	// RCCE simulation the sweep actually executes and writes one Chrome
	// trace_event file per distinct run into the directory, named after
	// the cell's semantic key. Cells served from the cell cache (dups,
	// warm daemon caches) write nothing — only real simulations have a
	// timeline.
	TraceDir string
}

// Report is the JSON document hsmbench emits as BENCH_<grid>.json.
type Report struct {
	Grid Grid `json:"grid"`
	// Shard is "i/n" when the report covers one shard, "" otherwise.
	Shard   string       `json:"shard,omitempty"`
	Results []CellResult `json:"results"`
	// SynthWins is the profiled-vs-static win map over the report's
	// synthetic cells (hsmbench -synth fills it in via SynthWinMap;
	// empty for corpus-only grids).
	SynthWins []SynthWin `json:"synth_wins,omitempty"`
}

// JSON renders the report with a stable layout (indent + trailing
// newline) so that reruns and shards diff and concatenate cleanly.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Filename is the canonical artifact name for this report's grid.
func (r *Report) Filename() string {
	return fmt.Sprintf("BENCH_%s.json", r.Grid.Name)
}

// cellKey identifies the semantic inputs of an RCCE run. Cells with
// different spec budgets can resolve to the same effective work (budget
// 0 is "the full MPB"), which the cache collapses. placement is the
// profile-guided placement map digest — empty for static policies — so
// a profiled cell can never collide with a static-policy cell at the
// same (cores, policy-name, budget) tuple, nor with a profiled cell
// whose measured placement differs.
//
// (Baseline runs have no per-grid cache anymore: RunBaseline memoizes
// through the sweep's shared bench.Cache, so every policy and budget
// cell at one (workload, cores) point shares a single run.)
// machine is the machine-config digest: sweeps over different presets
// (the scaling study) share one daemon-lifetime cache, and a cell run
// on a 48-core mesh must never serve the same (workload, cores, policy,
// budget) point simulated on a 1024-core one.
type cellKey struct {
	workload  string
	cores     int
	policy    string
	budget    int
	placement string
	machine   string
}

// semanticKey normalises a cell to its cache identity: budget 0 and an
// explicit full-MPB budget are the same work. The placement digest is
// filled in by runCell once the (memoized) profile pass has produced
// it; for duplicate-marking before execution the empty digest is
// enough, because the digest is itself a deterministic function of the
// other key fields.
func semanticKey(c Cell, fullMPB int, machine string) cellKey {
	b := c.MPBBudget
	if b <= 0 {
		b = fullMPB
	}
	return cellKey{workload: c.Workload, cores: c.Cores, policy: c.Policy, budget: b, machine: machine}
}

// gridRunner carries the per-run caches.
type gridRunner struct {
	grid    Grid
	cfg     Config
	fullMPB int
	cells   onceCache[cellKey, *RunResult]
	// traceDir, when non-empty, receives one Chrome trace file per
	// distinct RCCE simulation (RunOptions.TraceDir).
	traceDir string
}

// RunGrid executes the grid's cells across a worker pool and returns
// the report in deterministic cell order. Per-cell failures are
// recorded in CellResult.Error rather than aborting the sweep; only
// invalid specs and shards error out.
func RunGrid(g Grid, opt RunOptions) (*Report, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cells := g.Cells()
	rep := &Report{Grid: g}
	if opt.ShardCount > 1 {
		if opt.ShardIndex < 0 || opt.ShardIndex >= opt.ShardCount {
			return nil, fmt.Errorf("shard %d/%d out of range", opt.ShardIndex, opt.ShardCount)
		}
		var mine []Cell
		for _, c := range cells {
			if c.Index%opt.ShardCount == opt.ShardIndex {
				mine = append(mine, c)
			}
		}
		cells = mine
		rep.Shard = fmt.Sprintf("%d/%d", opt.ShardIndex, opt.ShardCount)
	}
	workers := opt.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}

	r := &gridRunner{grid: g, cfg: DefaultConfig()}
	r.cfg.Scale = g.Scale
	if r.cfg.Scale == 0 {
		r.cfg.Scale = 1.0
	}
	// Validate resolved the preset already; a fresh machine per run keeps
	// timing state (controller queues) from leaking between cells.
	mcfg := sccsim.MustPreset(g.Machine)
	r.cfg.Machine = func() *sccsim.Machine { return sccsim.MustNew(mcfg) }
	// One compile cache for the whole sweep: each workload's baseline
	// source and each distinct translated source compile exactly once,
	// and all matrix cells (across all workers) share the immutable
	// compiled Programs. A caller-provided cache (the daemon's
	// process-lifetime one) extends the sharing across sweeps.
	r.cfg.Cache = opt.Cache
	if r.cfg.Cache == nil {
		r.cfg.Cache = NewCache()
	}
	r.cfg.Cancel = opt.Cancel
	r.cfg.Fault = opt.Fault
	r.traceDir = opt.TraceDir

	// Mark duplicate cells (same semantic key as an earlier-indexed
	// cell) up front, so the Cached flag does not depend on which
	// worker won the race to compute the shared entry. The machine
	// config is fixed across the sweep: fingerprint it once here so
	// per-cell cache-key construction never builds a throwaway machine.
	r.fullMPB = r.cfg.Machine().Config().MPBTotal()
	r.cfg = r.cfg.PrecomputeMachineEnv()
	firstByKey := make(map[cellKey]int)
	dup := make([]bool, len(cells))
	for i, c := range cells {
		k := semanticKey(c, r.fullMPB, r.cfg.machineEnv)
		if _, ok := firstByKey[k]; ok {
			dup[i] = true
		} else {
			firstByKey[k] = i
		}
	}

	results := make([]CellResult, len(cells))
	// The reorder buffer behind OnResult: workers finish cells in any
	// order, the callback sees them in index order.
	var emit func(i int)
	if opt.OnResult != nil {
		var emu sync.Mutex
		ready := make([]bool, len(cells))
		next := 0
		emit = func(i int) {
			emu.Lock()
			defer emu.Unlock()
			ready[i] = true
			for next < len(cells) && ready[next] {
				opt.OnResult(results[next])
				next++
			}
		}
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if opt.Cancel != nil {
					if err := opt.Cancel(); err != nil {
						results[i] = CellResult{Cell: cells[i], Error: fmt.Sprintf("canceled: %v", err)}
						results[i].Cached = dup[i]
						if emit != nil {
							emit(i)
						}
						continue
					}
				}
				results[i] = r.safeRunCell(cells[i])
				results[i].Cached = dup[i]
				if emit != nil {
					emit(i)
				}
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	rep.Results = results
	return rep, nil
}

// safeRunCell is runCell behind a panic boundary: a panicking cell
// (injected or genuine) costs exactly that cell — it is recorded as a
// cell error in the report and the worker goroutine survives to drain
// the rest of the sweep. Panics inside memoized computes are already
// captured by the cache layer (evict.go); this catches the rest of the
// per-cell path.
func (r *gridRunner) safeRunCell(cell Cell) (res CellResult) {
	defer func() {
		if v := recover(); v != nil {
			res = CellResult{Cell: cell, Error: fmt.Sprintf("panic: %v", v)}
		}
	}()
	return r.runCell(cell)
}

// runCell executes one grid cell (baseline + translated run), pulling
// both halves through the memoizing caches.
func (r *gridRunner) runCell(cell Cell) CellResult {
	res := CellResult{Cell: cell}
	w, ok := ByKey(cell.Workload)
	if !ok {
		res.Error = fmt.Sprintf("unknown workload %q", cell.Workload)
		return res
	}
	policy, err := ParsePolicy(cell.Policy)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	cfg := r.cfg
	cfg.Threads = cell.Cores
	cfg.MPBCapacity = cell.MPBBudget

	// The baseline is memoized through the sweep's shared bench.Cache
	// (keyed by workload, cores, scale and run environment), so every
	// policy and budget cell shares one run.
	base, err := RunBaseline(w, cfg)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	key := semanticKey(cell, r.fullMPB, r.cfg.machineEnv)
	if policy == partition.PolicyProfiled {
		// Resolve the measured placement (profile pass memoized in the
		// shared Cache) so its digest becomes part of the cell's cache
		// identity.
		pl, err := PlacementFor(w, cfg, key.budget)
		if err != nil {
			res.Error = err.Error()
			return res
		}
		key.placement = pl.Digest()
	}
	// With a trace directory, the cell that actually simulates (the
	// winner of the onceCache race) records its run and writes the
	// Chrome trace named by the semantic key; cache hits write nothing.
	var rec *trace.Recorder
	conv, err := r.cells.get(key, func() (*RunResult, error) {
		if r.traceDir != "" {
			rec = trace.NewRecorder(nil, 0)
			cfg.TraceRCCE = rec
		}
		return RunRCCE(w, cfg, policy)
	})
	if err != nil {
		res.Error = err.Error()
		return res
	}
	if rec != nil {
		name := fmt.Sprintf("%s_%dc_%s_%d.trace.json", key.workload, key.cores, key.policy, key.budget)
		if werr := rec.WriteFile(filepath.Join(r.traceDir, name)); werr != nil {
			res.Error = fmt.Sprintf("write trace: %v", werr)
			return res
		}
	}
	res.BaselinePs = base.Makespan
	res.RCCEPs = conv.Makespan
	res.Speedup = Speedup(base, conv)
	res.Match = SameResults(base.Output, conv.Output)
	res.MPBAccesses = conv.Stats.MPBAccesses
	res.SharedAccesses = conv.Stats.SharedAccesses
	res.OnChipBytes = conv.OnChipBytes
	res.PlacementDigest = conv.PlacementDigest
	return res
}

// FormatReport renders the grid results as a text table (the
// machine-readable form is Report.JSON).
func FormatReport(rep *Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Grid %q — %d cells", rep.Grid.Name, len(rep.Results))
	if rep.Shard != "" {
		fmt.Fprintf(&sb, " (shard %s)", rep.Shard)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-10s %6s %-8s %10s %12s %12s %9s %10s %6s\n",
		"Workload", "Cores", "Policy", "MPB-budget", "Pthread (s)", "RCCE (s)", "Speedup", "On-chip B", "Match")
	for _, r := range rep.Results {
		if r.Error != "" {
			fmt.Fprintf(&sb, "%-10s %6d %-8s %10d  ERROR: %s\n", r.Workload, r.Cores, r.Policy, r.MPBBudget, r.Error)
			continue
		}
		fmt.Fprintf(&sb, "%-10s %6d %-8s %10d %12.4f %12.4f %8.1fx %10d %6v\n",
			r.Workload, r.Cores, r.Policy, r.MPBBudget,
			float64(r.BaselinePs)/sccsim.PsPerSecond, float64(r.RCCEPs)/sccsim.PsPerSecond,
			r.Speedup, r.OnChipBytes, r.Match)
	}
	return sb.String()
}

// MergeReports combines shard reports of the same grid into one full
// report ordered by cell index — the reduce step after a sharded sweep.
func MergeReports(parts ...*Report) (*Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("no reports to merge")
	}
	out := &Report{Grid: parts[0].Grid}
	wantSpec, err := json.Marshal(out.Grid)
	if err != nil {
		return nil, err
	}
	seen := make(map[int]bool)
	for _, p := range parts {
		spec, err := json.Marshal(p.Grid)
		if err != nil {
			return nil, err
		}
		// Name alone is not identity: shards taken at different scales
		// or over different axes must not be mixed into one report.
		if string(spec) != string(wantSpec) {
			return nil, fmt.Errorf("cannot merge reports with different grid specs (%s vs %s)", wantSpec, spec)
		}
		for _, r := range p.Results {
			if seen[r.Index] {
				return nil, fmt.Errorf("duplicate cell %d across shards", r.Index)
			}
			seen[r.Index] = true
			out.Results = append(out.Results, r)
		}
	}
	// A merge is only "the full report" if every cell of the grid is
	// present — catching a forgotten shard before its absence silently
	// skews downstream comparisons.
	if want := len(out.Grid.Cells()); len(out.Results) != want {
		return nil, fmt.Errorf("merge incomplete: %d of %d cells (missing shard?)", len(out.Results), want)
	}
	sort.Slice(out.Results, func(i, j int) bool { return out.Results[i].Index < out.Results[j].Index })
	return out, nil
}
