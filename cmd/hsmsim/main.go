// Command hsmsim runs a C program on the simulated SCC, under either the
// single-core Pthread baseline or the multiprocess RCCE runtime.
//
// Usage:
//
//	hsmsim [-mode pthread|rcce] [-cores N] [-machine scc48|mesh256|mesh1024]
//	       [-stats] [-trace out.json] program.c
//
// pthread mode executes main with every created thread time-sharing core
// 0 (the paper's baseline). rcce mode runs RCCE_APP (or main) on N cores,
// one process each.
//
// -trace writes the run's scheduling and memory-system timeline as a
// Chrome trace_event JSON file — open it in ui.perfetto.dev or
// chrome://tracing. Tracing does not change simulation results (the
// recorder only observes; see docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"hsmcc/internal/interp"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
	"hsmcc/internal/trace"
)

func main() {
	mode := flag.String("mode", "pthread", "execution mode: pthread (1-core baseline) or rcce")
	cores := flag.Int("cores", 32, "number of UEs in rcce mode")
	stats := flag.Bool("stats", false, "print machine statistics to stderr")
	machinePreset := flag.String("machine", "", "machine preset: scc48, mesh256 or mesh1024 (empty = scc48)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON timeline of the run to this file")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hsmsim [flags] program.c")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	pr, err := interp.Compile(flag.Arg(0), string(src))
	if err != nil {
		fatal(err)
	}
	mcfg, err := sccsim.PresetConfig(*machinePreset)
	if err != nil {
		fatal(err)
	}
	machine, err := sccsim.New(mcfg)
	if err != nil {
		fatal(err)
	}

	var rec *trace.Recorder
	var hooks interp.Hooks
	if *traceOut != "" {
		rec = trace.NewRecorder(machine, 0)
		hooks.Trace = rec
	}

	var output string
	var seconds float64
	switch *mode {
	case "pthread":
		opts := pthreadrt.DefaultOptions()
		opts.Hooks = hooks
		res, err := pthreadrt.Run(pr, machine, opts)
		if err != nil {
			fatal(err)
		}
		output, seconds = res.Output, res.Seconds()
		if *stats {
			fmt.Fprintf(os.Stderr, "context switches: %d\n", res.Switches)
		}
	case "rcce":
		opts := rcce.DefaultOptions(*cores)
		opts.Hooks = hooks
		res, err := rcce.Run(pr, machine, opts)
		if err != nil {
			fatal(err)
		}
		output, seconds = res.Output, res.Seconds()
		if *stats {
			fmt.Fprintf(os.Stderr, "on-chip bytes: %d, shared bytes: %d\n", res.OnChipBytes, res.SharedBytes)
		}
	default:
		fmt.Fprintf(os.Stderr, "hsmsim: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	if rec != nil {
		if err := rec.WriteFile(*traceOut); err != nil {
			fatal(err)
		}
		s := rec.Summarize()
		fmt.Fprintf(os.Stderr, "trace: %s (%d events, %d contexts, %d dropped)\n",
			*traceOut, s.Events, s.Contexts, s.Dropped)
	}

	fmt.Print(output)
	fmt.Fprintf(os.Stderr, "simulated time: %.6f s\n", seconds)
	if *stats {
		t := machine.TotalStats()
		fmt.Fprintf(os.Stderr,
			"loads=%d stores=%d private=%d shared=%d mpb=%d (remote %d)\n"+
				"L1 %d/%d hits, L2 %d/%d hits\n",
			t.Loads, t.Stores, t.PrivateAccesses, t.SharedAccesses, t.MPBAccesses, t.MPBRemote,
			t.L1Hits, t.L1Hits+t.L1Misses, t.L2Hits, t.L2Hits+t.L2Misses)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hsmsim:", err)
	os.Exit(1)
}
