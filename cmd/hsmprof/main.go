// Command hsmprof drives the access-profiling subsystem standalone: it
// runs the profile pass for one or more workloads (translate with every
// shared variable off-chip, execute once with counters attached), prints
// the per-variable access profile — reads, writes, per-core frequency,
// sharer set — with the simulator's MPB occupancy statistics, and
// optimizes the placement for each requested MPB budget.
//
// Inspect a workload's measured sharing behaviour:
//
//	hsmprof -workloads stream -cores 8 -scale 0.1
//
// Ask what the optimizer would place at concrete budgets (0 = the full
// MPB), exactly as the grid's `profiled` policy will:
//
//	hsmprof -workloads lu,stream -cores 32 -mpb 0,4096,16384
//
// Emit the machine-readable form (profiles plus placements) for
// downstream tooling:
//
//	hsmprof -workloads pi -json -out PROF_pi.json
//
// Workload keys may also be synthetic parameter vectors in their
// canonical `synth:` encoding (print one with `hsmconf -synth -print`),
// so a grid cell's sharing behaviour is inspectable directly:
//
//	hsmprof -workloads 'synth:s1:o768:m0.75:l0.6:h0.6:d4:a256:p32:r2:ki' -cores 8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hsmcc/internal/bench"
	"hsmcc/internal/profile"
)

// output is the JSON document: one entry per workload.
type output struct {
	Workloads []workloadOutput `json:"workloads"`
}

type workloadOutput struct {
	Report     *profile.Report      `json:"report"`
	Placements []*profile.Placement `json:"placements,omitempty"`
}

func main() {
	var (
		workloads = flag.String("workloads", "", "comma-separated workload keys (empty = full corpus)")
		cores     = flag.Int("cores", 32, "thread/core count to profile at")
		scale     = flag.Float64("scale", 1.0, "problem size multiplier")
		budgets   = flag.String("mpb", "0", "comma-separated MPB byte budgets to optimize for (0 = full MPB)")
		jsonOut   = flag.Bool("json", false, "emit the JSON document instead of tables")
		outPath   = flag.String("out", "", "JSON output path (- or empty = stdout; implies -json)")
	)
	flag.Parse()

	keys := splitCSV(*workloads)
	if len(keys) == 0 {
		for _, w := range bench.All() {
			keys = append(keys, w.Key)
		}
	}
	budgetList, err := splitInts(*budgets)
	if err != nil {
		fatal(fmt.Errorf("-mpb: %w", err))
	}

	cfg := bench.DefaultConfig()
	cfg.Threads = *cores
	cfg.Scale = *scale
	cfg.Cache = bench.NewCache()
	fullMPB := cfg.Machine().Config().MPBTotal()

	var doc output
	for _, key := range keys {
		w, ok := bench.ByKey(key)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", key))
		}
		rep, err := bench.ProfileWorkload(w, cfg)
		if err != nil {
			fatal(err)
		}
		wo := workloadOutput{Report: rep}
		for _, b := range budgetList {
			eff := b
			if eff <= 0 {
				eff = fullMPB
			}
			wo.Placements = append(wo.Placements, profile.Optimize(rep, eff))
		}
		doc.Workloads = append(doc.Workloads, wo)
		if !*jsonOut && *outPath == "" {
			fmt.Print(rep.Table())
			for _, pl := range wo.Placements {
				fmt.Printf("  %s\n", pl)
			}
			fmt.Println()
		}
	}

	if *jsonOut || *outPath != "" {
		buf, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		buf = append(buf, '\n')
		if *outPath == "" || *outPath == "-" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
			fatal(err)
		} else {
			fmt.Printf("wrote %s (%d workloads)\n", *outPath, len(doc.Workloads))
		}
	}
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hsmprof: %v\n", err)
	os.Exit(1)
}
