package main

// The trace subcommand: run one telemetry-enabled open-loop WebService
// cell and emit its Chrome trace-event timeline (load the file in
// chrome://tracing or ui.perfetto.dev). The timeline bytes go to stdout
// or -out; the human-readable run summary goes to stderr, so the emitted
// JSON stays byte-comparable across runs.

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/o2"
)

func traceFlags(args []string) (o2.TraceConfig, string, error) {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced cell (Tiny8 machine, 2k requests)")
	seed := fs.Uint64("seed", 1, "base RNG seed")
	out := fs.String("out", "", "write the timeline JSON to this file (default stdout)")
	interval := fs.Uint64("interval", 0, "telemetry sampling period in cycles (0 = config default)")
	if err := parse(fs, args); err != nil {
		return o2.TraceConfig{}, "", err
	}
	cfg := o2.DefaultTraceConfig()
	if *quick {
		cfg = o2.QuickTraceConfig()
	}
	cfg.Seed = *seed
	if *interval > 0 {
		cfg.Interval = o2.Cycles(*interval)
	}
	return cfg, *out, nil
}

// emitTrace runs the cell, writes the timeline JSON to w, and the run
// summary to info. Split from runTrace so tests can pin the JSON schema
// without capturing the summary.
func emitTrace(w, info io.Writer, cfg o2.TraceConfig) error {
	tr, err := o2.RunTrace(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(info, "trace: %s %s, %d requests, %.1f offered / %.1f achieved krps, p99 %.0f cycles\n",
		cfg.Machine.Name(), tr.Runtime.Scheduler(), cfg.Load.Requests,
		tr.Result.OfferedKRPS, tr.Result.AchievedKRPS, tr.Result.P99)
	fmt.Fprintf(info, "trace: %d samples at %d-cycle interval\n", tr.Samples, cfg.Interval)
	return tr.Runtime.WriteTimeline(w)
}

func runTrace(args []string) error {
	cfg, out, err := traceFlags(args)
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return emitTrace(w, os.Stderr, cfg)
}
