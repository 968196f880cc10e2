package main

// The layer replay: each distinct cell goes through the translator and
// both runtimes one public function at a time — lexer, parser, sema,
// the three analysis stages, partition, translate, printer, interp.Load,
// sccsim.New, pthreadrt.Run and rcce.Run — so every layer's host time
// and the simulated memory-system counters are measured on their own.
// The replayed translation must print exactly what the bench harness
// prints, and the replayed RCCE run must reproduce the measured
// makespan; a difference counts as a failed check.

import (
	"fmt"
	"time"

	"hsmcc/internal/analysis/interthread"
	"hsmcc/internal/analysis/pointsto"
	"hsmcc/internal/analysis/scope"
	"hsmcc/internal/bench"
	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/lexer"
	"hsmcc/internal/cc/parser"
	"hsmcc/internal/cc/printer"
	"hsmcc/internal/cc/sema"
	"hsmcc/internal/conformance"
	"hsmcc/internal/interp"
	"hsmcc/internal/partition"
	"hsmcc/internal/profile"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
	"hsmcc/internal/trace"
	"hsmcc/internal/translate"
)

// maxReplayCells bounds the replay so a traced run stays short.
const maxReplayCells = 12

// replayCell is one cell to replay: the harness configuration (threads,
// scale, machine, runtime options, budget) and the Stage 4 policy.
type replayCell struct {
	w      bench.Workload
	cfg    bench.Config
	policy string
	// rccePs, when non-zero, is the makespan the measured path reported.
	rccePs uint64
}

// replayStats accumulates host time per layer and simulated counters.
type replayStats struct {
	cells int
	// Per-call host time sums and call counts of the front end.
	ns    map[string]time.Duration
	calls map[string]int

	sharedVars, onChipBytes, translations int
	switches, baseRuns                    uint64
	newNs                                 time.Duration
	newN                                  int

	accesses, simRuns uint64
	simNs             time.Duration
	stats             sccsim.CoreStats
	util              float64
	utilN             int
	stallPs, ctxPs    float64

	mismatches int
	notes      []string
}

func (rs *replayStats) timed(layer string, f func()) { rs.timedMin(layer, 1, f) }

// timedMin calls f reps times and records the fastest call, so a call
// that first touches cold caches does not stand for the layer.
func (rs *replayStats) timedMin(layer string, reps int, f func()) {
	var best time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	rs.ns[layer] += best
	rs.calls[layer]++
}

// mean is the mean host ms of one call into layer.
func (rs *replayStats) mean(layer string) float64 {
	if rs.calls[layer] == 0 {
		return 0
	}
	return float64(rs.ns[layer]) / 1e6 / float64(rs.calls[layer])
}

func (rs *replayStats) mismatch(format string, args ...any) {
	rs.mismatches++
	if len(rs.notes) < 5 {
		rs.notes = append(rs.notes, "replay mismatch: "+fmt.Sprintf(format, args...))
	}
}

// frontEnd lexes, parses and checks src, timing each step.
func (rs *replayStats) frontEnd(name, src string) (*ast.File, *sema.Info, error) {
	var err error
	rs.timedMin("lex", 3, func() { _, err = lexer.TokenizeWithMacros(src) })
	if err != nil {
		return nil, nil, err
	}
	var f *ast.File
	rs.timedMin("parse", 3, func() { f, err = parser.Parse(name, src) })
	if err != nil {
		return nil, nil, err
	}
	var info *sema.Info
	rs.timed("sema", func() { info, err = sema.Analyze(f) })
	return f, info, err
}

func (rs *replayStats) load(f *ast.File, info *sema.Info) (*interp.Program, error) {
	var pr *interp.Program
	var err error
	rs.timed("load", func() { pr, err = interp.Load(f, info) })
	return pr, err
}

func (rs *replayStats) newMachine(cfg sccsim.Config) *sccsim.Machine {
	start := time.Now()
	m := sccsim.MustNew(cfg)
	rs.newNs += time.Since(start)
	rs.newN++
	return m
}

// replay runs every cell layer by layer.
func replay(cells []replayCell) (*replayStats, error) {
	rs := &replayStats{ns: map[string]time.Duration{}, calls: map[string]int{}}
	if len(cells) > maxReplayCells {
		cells = cells[:maxReplayCells]
	}
	// The conformance generator's cost per kernel: generate a reference
	// kernel and emit it for every UE count of the default matrix.
	m := conformance.DefaultMatrix()
	for k := int64(0); k < confRefKernels; k++ {
		rs.timed("gen", func() {
			spec := conformance.SpecForSeed(k, conformance.DefaultGenOptions())
			for _, cores := range m.Cores {
				for _, f := range factors(m) {
					spec.Source(cores * f)
				}
			}
		})
	}
	baselines := map[string]bool{}
	for _, c := range cells {
		if err := rs.cell(c, baselines); err != nil {
			return nil, fmt.Errorf("%s/%d/%s: %w", c.w.Key, c.cfg.Threads, c.policy, err)
		}
		rs.cells++
	}
	return rs, nil
}

func (rs *replayStats) cell(c replayCell, baselines map[string]bool) error {
	cfg := c.cfg
	mcfg := cfg.Machine().Config()
	src := c.w.Source(cfg.Threads, cfg.Scale)
	pol, err := bench.ParsePolicy(c.policy)
	if err != nil {
		return err
	}

	// Baseline: once per distinct source and thread count.
	if key := fmt.Sprintf("%d\x00%s", cfg.Threads, src); !baselines[key] {
		baselines[key] = true
		f, info, err := rs.frontEnd(c.w.Key+".c", src)
		if err != nil {
			return err
		}
		pr, err := rs.load(f, info)
		if err != nil {
			return err
		}
		opts := cfg.Baseline
		opts.Engine = cfg.Engine
		start := time.Now()
		res, err := pthreadrt.Run(pr, rs.newMachine(mcfg), opts)
		if err != nil {
			return err
		}
		rs.simNs += time.Since(start)
		rs.switches += res.Switches
		rs.baseRuns++
		rs.addStats(res.Stats)
	}

	// Translation, stage by stage, as core.Run chains them.
	f, info, err := rs.frontEnd(c.w.Key+".c", src)
	if err != nil {
		return err
	}
	var pts *pointsto.Result
	var sc *scope.Result
	rs.timed("analysis", func() {
		sc = scope.Analyze(info)
		pts = pointsto.Analyze(interthread.Analyze(sc), pointsto.Options{})
	})
	capacity := cfg.MPBCapacity
	if capacity <= 0 {
		capacity = mcfg.MPBTotal()
	}
	// The access-profiling pass, as bench.PlacementFor runs it.
	var rep *profile.Report
	rs.timed("profile", func() { rep, err = bench.ProfileWorkload(c.w, cfg) })
	if err != nil {
		return err
	}
	var onChip map[string]bool
	if pol == partition.PolicyProfiled {
		onChip = profile.Optimize(rep, capacity).OnChip()
	}
	if pol == partition.PolicyOffChipOnly {
		capacity = 0
	}
	var part *partition.Result
	rs.timed("partition", func() {
		if onChip != nil {
			part = partition.PartitionExplicit(sc.SharedVars(), capacity, onChip)
		} else {
			part = partition.Partition(sc.SharedVars(), capacity, pol)
		}
	})
	rs.timed("translate", func() {
		_, err = translate.Translate(f, pts, part, translate.Options{Cores: cfg.Threads})
	})
	if err != nil {
		return err
	}
	var out string
	rs.timed("printer", func() { out = printer.Print(f) })
	rs.sharedVars += len(sc.SharedVars())
	rs.onChipBytes += part.OnChipBytes
	rs.translations++
	if want, err := bench.TranslateWorkload(c.w, cfg, pol); err != nil {
		return err
	} else if want.Source != out {
		rs.mismatch("%s/%d/%s: replayed translation differs from the harness", c.w.Key, cfg.Threads, c.policy)
	}

	tf, tinfo, err := rs.frontEnd(c.w.Key+"_rcce.c", out)
	if err != nil {
		return err
	}
	pr, err := rs.load(tf, tinfo)
	if err != nil {
		return err
	}
	ropts := rcce.DefaultOptions(cfg.Threads)
	if cfg.RCCE != nil {
		ropts = cfg.RCCE(cfg.Threads)
	}
	rec := trace.NewRecorder(nil, 0)
	ropts.Trace = rec
	start := time.Now()
	res, err := rcce.Run(pr, rs.newMachine(mcfg), ropts)
	if err != nil {
		return err
	}
	rs.simNs += time.Since(start)
	rs.addStats(res.Stats)
	if c.rccePs != 0 && uint64(res.Makespan) != c.rccePs {
		rs.mismatch("%s/%d/%s: replayed rcce_ps %d, measured %d", c.w.Key, cfg.Threads, c.policy, res.Makespan, c.rccePs)
	}
	sum := rec.Summarize()
	var u float64
	for _, cs := range sum.Cores {
		u += cs.Utilization
	}
	if len(sum.Cores) > 0 {
		rs.util += u / float64(len(sum.Cores))
		rs.utilN++
	}
	for _, st := range sum.Stalls {
		rs.stallPs += float64(st.TotalPs)
	}
	rs.ctxPs += float64(sum.Contexts) * float64(sum.MakespanPs)
	return nil
}

func (rs *replayStats) addStats(s sccsim.CoreStats) {
	rs.simRuns++
	rs.accesses += s.Loads + s.Stores
	rs.stats.MPBAccesses += s.MPBAccesses
	rs.stats.SharedAccesses += s.SharedAccesses
	rs.stats.L1Hits += s.L1Hits
	rs.stats.L1Misses += s.L1Misses
	rs.stats.L2Hits += s.L2Hits
	rs.stats.L2Misses += s.L2Misses
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fill writes the per-layer metrics. Front-end layers are reported per
// op: the mean host time of one call (replay) times the calls one op
// makes (the traced phase's stage spans: every "compile" parses, checks
// and loads one source, every "translate" runs the whole pipeline).
func (rs *replayStats) fill(m map[string]float64, tr *tracer, ops int) {
	perOp := func(n int64) float64 { return float64(n) / float64(ops) }
	compiles := perOp(tr.stageCount("compile"))
	translates := perOp(tr.stageCount("translate"))
	parses := compiles + translates
	m["cc.parses"] = parses
	m["cc.lex_ms"] = rs.mean("lex") * parses
	m["cc.parse_ms"] = rs.mean("parse") * parses
	m["cc.sema_ms"] = rs.mean("sema") * parses
	m["analysis.ms"] = rs.mean("analysis") * translates
	m["partition.ms"] = rs.mean("partition") * translates
	m["translate.ms"] = rs.mean("translate") * translates
	m["printer.ms"] = rs.mean("printer") * translates
	m["interp.compiles"] = compiles
	m["interp.compile_ms"] = rs.mean("load") * compiles
	m["analysis.shared_vars"] = ratio(float64(rs.sharedVars), float64(rs.translations))
	m["partition.onchip_bytes"] = ratio(float64(rs.onChipBytes), float64(rs.translations))

	if n := tr.machines.Load(); n > 0 {
		m["sccsim.machines"] = perOp(n)
		m["sccsim.new_ms"] = float64(tr.machineNs.Load()) / 1e6 / float64(ops)
	} else {
		// The daemon builds its machines out of reach: every baseline,
		// simulate and profile stage builds one, at the replay's cost.
		n := tr.stageCount("baseline") + tr.stageCount("simulate") + tr.stageCount("profile")
		m["sccsim.machines"] = perOp(n)
		m["sccsim.new_ms"] = ratio(float64(rs.newNs)/1e6, float64(rs.newN)) * perOp(n)
	}
	m["pthreadrt.run_ms"] = tr.stageMsPerOp("baseline", ops)
	m["rcce.run_ms"] = tr.stageMsPerOp("simulate", ops)
	m["profile.ms"] = rs.mean("profile")
	m["conformance.gen_ms"] = rs.mean("gen")
	m["bench.computes"] = perOp(tr.computes.Load())

	m["pthreadrt.switches"] = ratio(float64(rs.switches), float64(rs.baseRuns))
	m["sccsim.accesses"] = ratio(float64(rs.accesses), float64(rs.simRuns))
	m["sim.ns_per_access"] = ratio(float64(rs.simNs), float64(rs.accesses))
	s := rs.stats
	m["sccsim.mpb_share"] = ratio(float64(s.MPBAccesses), float64(s.MPBAccesses+s.SharedAccesses))
	m["sccsim.l1_hit_ratio"] = ratio(float64(s.L1Hits), float64(s.L1Hits+s.L1Misses))
	m["sccsim.l2_hit_ratio"] = ratio(float64(s.L2Hits), float64(s.L2Hits+s.L2Misses))
	m["trace.sim_utilization"] = ratio(rs.util, float64(rs.utilN))
	m["trace.sim_stall_share"] = ratio(rs.stallPs, rs.ctxPs)
}
