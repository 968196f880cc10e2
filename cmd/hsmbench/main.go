// Command hsmbench regenerates the paper's evaluation: every table and
// figure of thesis Chapter 6 (and the analysis tables of Chapter 4), on
// the simulated SCC — plus the parallel experiment grid that sweeps the
// full (workload x cores x policy x MPB-budget) space concurrently and
// emits machine-readable BENCH_<grid>.json reports.
//
// Figure/table mode:
//
//	hsmbench [-exp all|table4.1|table4.2|table6.1|fig6.1|fig6.2|fig6.3]
//	         [-threads N] [-scale F]
//
// Grid mode (entered by -exp grid, or implied by -json / -workloads /
// -parallel / -shard):
//
//	hsmbench -workloads pi,stream -cores 4,16 -policies offchip,size
//	         [-mpb 0,24576] [-scale F] [-parallel N] [-shard i/n]
//	         [-json] [-out PATH] [-grid NAME] [-trace-dir DIR]
//
// -scale shrinks problem sizes for quick runs (1.0 reproduces the full
// experiment; 0.1 finishes in seconds). -parallel runs grid cells
// concurrently across goroutines; results are deterministic regardless
// of worker count. -shard i/n runs every n-th cell starting at i so n
// machines cover the grid exactly once. See docs/BENCHMARKS.md for the
// grid schema, the JSON format, and the figure-to-grid mapping.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hsmcc/internal/bench"
	"hsmcc/internal/core"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table4.1, table4.2, table6.1, fig6.1, fig6.2, fig6.3, grid")
	threads := flag.Int("threads", 32, "thread/core count (figure/table mode)")
	scale := flag.Float64("scale", 1.0, "problem size multiplier")
	gridName := flag.String("grid", "paper", "grid name; the JSON artifact is BENCH_<name>.json")
	workloads := flag.String("workloads", "", "grid mode: comma-separated workload keys (empty = full corpus)")
	coresList := flag.String("cores", "", "grid mode: comma-separated core counts (empty = 1,2,4,8,16,32)")
	policies := flag.String("policies", "offchip,size", "grid mode: comma-separated Stage 4 policies (offchip, size, freq, profiled)")
	budgets := flag.String("mpb", "", "grid mode: comma-separated MPB byte budgets (0 = full MPB)")
	parallel := flag.Int("parallel", 0, "grid mode: worker goroutines (0 = GOMAXPROCS)")
	shard := flag.String("shard", "", "grid mode: run shard i/n of the grid, e.g. 0/4")
	jsonOut := flag.Bool("json", false, "grid mode: write BENCH_<grid>.json")
	outPath := flag.String("out", "", "grid mode: JSON output path override (- = stdout)")
	doSynth := flag.Bool("synth", false, "grid mode: sweep the synthetic sharing x footprint plane instead of the corpus")
	synthSharing := flag.String("synth-sharing", "", "-synth: comma-separated degrees of sharing (empty = 1,2,4,8)")
	synthFootprint := flag.String("synth-footprint", "", "-synth: comma-separated shared addresses per group (empty = 64,256,1024)")
	machine := flag.String("machine", "", "machine preset: scc48, mesh256 or mesh1024 (empty = scc48)")
	traceDir := flag.String("trace-dir", "", "grid mode: write one Chrome trace_event JSON file per executed RCCE simulation into this directory")
	flag.Parse()

	// Any explicitly set grid flag selects grid mode; combining one with
	// a figure/table experiment is a conflict, not something to ignore.
	gridFlagNames := []string{"grid", "workloads", "cores", "policies", "mpb", "parallel", "shard", "json", "out", "synth", "synth-sharing", "synth-footprint", "machine", "trace-dir"}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	gridFlags := false
	for _, name := range gridFlagNames {
		if explicit[name] {
			gridFlags = true
		}
	}
	if gridFlags && *exp != "all" && *exp != "grid" {
		fmt.Fprintf(os.Stderr, "hsmbench: grid flags (-%s) cannot be combined with -exp %s\n", strings.Join(gridFlagNames, "/-"), *exp)
		os.Exit(2)
	}
	if *exp == "grid" || gridFlags {
		if *doSynth {
			// The synthetic plane has its own defaults: the win map wants
			// every placement policy (profiled vs the statics), a budget
			// that actually constrains the MPB, and a tractable core axis.
			if !explicit["grid"] {
				*gridName = "synth"
			}
			if !explicit["policies"] {
				*policies = "offchip,size,freq,profiled"
			}
			if *coresList == "" {
				// Up to 8 cores so the sharing=8 rows are distinct (the
				// emitted group degree clamps to the UE count).
				*coresList = "2,4,8"
			}
			if *budgets == "" {
				*budgets = "0,512"
			}
		}
		synthOpts, err := synthPlaneOptions(*doSynth, *synthSharing, *synthFootprint)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hsmbench grid: %v\n", err)
			os.Exit(1)
		}
		if err := runGrid(*gridName, *workloads, *coresList, *policies, *budgets, *scale, *parallel, *shard, *machine, *traceDir, *jsonOut, *outPath, synthOpts); err != nil {
			fmt.Fprintf(os.Stderr, "hsmbench grid: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := bench.DefaultConfig()
	cfg.Threads = *threads
	cfg.Scale = *scale

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "hsmbench %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table4.1", func() error {
		p, err := analysisPipeline()
		if err != nil {
			return err
		}
		fmt.Println("Table 4.1 — information extracted per variable (Example Code 4.1, post Stage 3)")
		fmt.Print(p.Table41())
		return nil
	})
	run("table4.2", func() error {
		p, err := analysisPipeline()
		if err != nil {
			return err
		}
		fmt.Println("Table 4.2 — variable sharing status after each stage (Example Code 4.1)")
		fmt.Print(p.Table42())
		return nil
	})
	run("table6.1", func() error {
		fmt.Println("Table 6.1 — SCC configuration")
		fmt.Print(bench.Table61(cfg))
		return nil
	})
	run("fig6.1", func() error {
		rows, err := bench.Fig61(cfg)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFig61(rows))
		return nil
	})
	run("fig6.2", func() error {
		rows, err := bench.Fig62(cfg)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFig62(rows))
		return nil
	})
	run("fig6.3", func() error {
		rows, err := bench.Fig63(cfg, nil)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFig63(rows))
		return nil
	})
}

// synthPlaneOptions resolves the -synth-sharing/-synth-footprint axes,
// returning nil when -synth is off.
func synthPlaneOptions(on bool, sharing, footprint string) (*bench.SynthPlaneOptions, error) {
	if !on {
		return nil, nil
	}
	opt := bench.DefaultSynthPlane()
	if sharing != "" {
		var err error
		if opt.Sharings, err = splitInts(sharing); err != nil {
			return nil, fmt.Errorf("-synth-sharing: %w", err)
		}
	}
	if footprint != "" {
		var err error
		if opt.Footprints, err = splitInts(footprint); err != nil {
			return nil, fmt.Errorf("-synth-footprint: %w", err)
		}
	}
	return &opt, nil
}

// runGrid executes the parallel experiment sweep and emits the report.
func runGrid(name, workloads, cores, policies, budgets string, scale float64, parallel int, shard, machine, traceDir string, jsonOut bool, outPath string, synthOpts *bench.SynthPlaneOptions) error {
	g := bench.DefaultGrid()
	g.Name = name
	g.Scale = scale
	g.Machine = machine
	if synthOpts != nil {
		g.Workloads = nil
		for _, p := range bench.SynthPlane(*synthOpts) {
			if err := p.Validate(); err != nil {
				return fmt.Errorf("synth plane cell %s: %w", p.Key(), err)
			}
			g.Workloads = append(g.Workloads, p.Key())
		}
	}
	if workloads != "" {
		g.Workloads = splitCSV(workloads)
	}
	if cores != "" {
		var err error
		if g.Cores, err = splitInts(cores); err != nil {
			return fmt.Errorf("-cores: %w", err)
		}
	}
	if policies != "" {
		g.Policies = splitCSV(policies)
	}
	if budgets != "" {
		var err error
		if g.MPBBudgets, err = splitInts(budgets); err != nil {
			return fmt.Errorf("-mpb: %w", err)
		}
	}
	opt := bench.RunOptions{Parallel: parallel, TraceDir: traceDir}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return fmt.Errorf("-trace-dir: %w", err)
		}
	}
	if shard != "" {
		var err error
		if opt.ShardIndex, opt.ShardCount, err = parseShard(shard); err != nil {
			return err
		}
	}
	rep, err := bench.RunGrid(g, opt)
	if err != nil {
		return err
	}
	if synthOpts != nil {
		rep.SynthWins = bench.SynthWinMap(rep)
	}
	// With -out -, stdout must carry only the JSON document; the human
	// table moves to stderr.
	human := os.Stdout
	if outPath == "-" {
		human = os.Stderr
	}
	fmt.Fprint(human, bench.FormatReport(rep))
	if synthOpts != nil {
		fmt.Fprintln(human)
		fmt.Fprint(human, bench.FormatSynthWinMap(rep.SynthWins))
	}
	if jsonOut || outPath != "" {
		buf, err := rep.JSON()
		if err != nil {
			return err
		}
		path := outPath
		if path == "" {
			path = rep.Filename()
		}
		if path == "-" {
			os.Stdout.Write(buf)
		} else {
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d cells)\n", path, len(rep.Results))
		}
	}
	for _, r := range rep.Results {
		if r.Error != "" {
			return fmt.Errorf("cell %d (%s/%d/%s) failed: %s", r.Index, r.Workload, r.Cores, r.Policy, r.Error)
		}
		if !r.Match {
			return fmt.Errorf("cell %d (%s/%d/%s): RCCE output diverged from the Pthread baseline", r.Index, r.Workload, r.Cores, r.Policy)
		}
	}
	return nil
}

func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitCSV(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseShard(s string) (idx, count int, err error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return 0, 0, fmt.Errorf("-shard wants i/n, got %q", s)
	}
	if idx, err = strconv.Atoi(s[:i]); err != nil {
		return 0, 0, fmt.Errorf("-shard wants i/n, got %q", s)
	}
	if count, err = strconv.Atoi(s[i+1:]); err != nil {
		return 0, 0, fmt.Errorf("-shard wants i/n, got %q", s)
	}
	if count < 1 || idx < 0 || idx >= count {
		return 0, 0, fmt.Errorf("-shard %q out of range (want 0 <= i < n)", s)
	}
	return idx, count, nil
}

// analysisPipeline analyses the thesis's running example.
func analysisPipeline() (*core.Pipeline, error) {
	src, err := os.ReadFile("testdata/example41.c")
	if err != nil {
		// Fall back to the embedded copy so the binary works from any
		// directory.
		return core.Analyze("example41.c", example41, core.Config{})
	}
	return core.Analyze("example41.c", string(src), core.Config{})
}

const example41 = `
#include <stdio.h>
#include <pthread.h>

int global;
int *ptr;
int sum[3] = {0};

void *tf(void *tid) {
    int tLocal = (int)tid;
    sum[tLocal] += tLocal;
    sum[tLocal] += *ptr;
    pthread_exit(NULL);
}

int main() {
    int local = 0;
    int tmp = 1;
    ptr = &tmp;
    pthread_t threads[3];
    int rc;
    for (local = 0; local < 3; local++) {
        rc = pthread_create(&threads[local], NULL, tf, (void *)local);
    }
    for (local = 0; local < 3; local++) {
        pthread_join(threads[local], NULL);
        printf("Sum Array: %d\n", sum[local]);
    }
    return 0;
}
`
