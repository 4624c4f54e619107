// Command o2bench regenerates the figures and tables of "Reinventing
// Scheduling for Multicore Systems" (HotOS 2009) on the simulated AMD16
// machine, the ablations of the design extensions from §6, and the
// service and big-machine scenarios built on them. It is a thin wrapper
// over the public repro/o2 package; `o2bench help` lists every command
// and its flags.
//
// The sweep commands (fig4a, fig4b, kv, web, soak, scale) and the
// ablations (`ablation -exp=NAME`) run on the o2.Sweep engine and share
// one set of flags: -quick selects the reduced configuration, -seed the
// base seed, -workers bounds the worker pool (default: all host CPUs),
// -repeats measures every grid cell that many times with distinct
// derived seeds and reports mean±stddev, and -json or -csv replace the
// aligned table (both pinned by the golden tests in this package). No
// output depends on -workers.
//
// The global -cpuprofile and -memprofile flags (before the command) write
// pprof profiles covering the whole run; see DESIGN.md, "Profiling the
// simulator".
//
// Results go to stdout; simulation progress goes to stderr. -h on any
// command exits 0, and a command-line mistake exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/o2"
)

func main() {
	global := flag.NewFlagSet("o2bench", flag.ExitOnError)
	global.Usage = usage
	cpuprofile := global.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := global.String("memprofile", "", "write a heap profile to this file on exit")
	// Parse stops at the first non-flag argument: the command.
	if err := global.Parse(os.Args[1:]); err != nil || global.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := global.Arg(0), global.Args()[1:]

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "o2bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "o2bench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
	}

	err := run(cmd, args)

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "o2bench: %v\n", ferr)
			os.Exit(1)
		}
		runtime.GC() // materialize the final live heap
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			fmt.Fprintf(os.Stderr, "o2bench: writing heap profile: %v\n", werr)
			os.Exit(1)
		}
		f.Close()
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "o2bench: %v\n", err)
	}
	os.Exit(exitCode(err))
}

// errUsage marks a command-line mistake. run returns it instead of
// exiting so main can still close the profile bracket first.
var errUsage = errors.New("usage error")

// exitCode maps run's error to the process status: 0 on success or a -h
// request, 2 for a usage error (the flag package's status), 1 otherwise.
func exitCode(err error) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	return 1
}

// parse parses a command's flags: -h comes back as flag.ErrHelp, any
// other flag error as a usage error.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		err = fmt.Errorf("%w: %v", errUsage, err)
	}
	return err
}

// run dispatches one command; profiling brackets it in main.
func run(cmd string, args []string) error {
	if sc := findSweep(cmd); sc != nil {
		return runSweep(sc, args)
	}
	switch cmd {
	case "fig2", "cachemap":
		return runFig2(os.Stdout, args)
	case "trace":
		return runTrace(args)
	case "latency":
		return runLatency(os.Stdout)
	case "migration":
		return runMigration(os.Stdout, args)
	case "ablation":
		return runAblation(os.Stdout, args)
	case "all":
		return runAll(args)
	case "help":
		usage()
		return nil
	}
	usage()
	return fmt.Errorf("%w: unknown command %q", errUsage, cmd)
}

func usage() {
	w := os.Stderr
	fmt.Fprint(w, "o2bench — reproduce the paper's evaluation\n\n",
		"  o2bench [-cpuprofile FILE] [-memprofile FILE] COMMAND [flags]\n\n")
	for _, sc := range sweeps {
		fmt.Fprintf(w, "  o2bench %s [-quick] [-seed N] [-workers N] [-repeats N] [-json|-csv]\n%37s%s\n",
			sc.name, "", sc.usage)
	}
	fmt.Fprint(w, `  o2bench fig2 [-dirs N] [-entries N] [-threads N] [-seed N]
                                     Figure 2: cache-contents maps
  o2bench trace [-quick] [-seed N] [-interval C] [-out FILE]
                                     telemetry timeline: one open-loop NUMA256 cell under
                                     bandwidth-aware CoreTime, exported as Chrome trace-event
                                     JSON for chrome://tracing / Perfetto
  o2bench latency                    hardware latency table (§5)
  o2bench migration [-trials N]      migration cost microbenchmark (§5)
  o2bench ablation -exp=NAME [-quick] [-seed N] [-workers N] [-repeats N] [-json|-csv]
                                     §6 ablations, NAME one of clustering|replication|replacement|
                                     migcost|hetero|paths|single|all (default all)
  o2bench all [sweep flags]          latency, migration, fig2, every sweep above, and the ablations
`)
}

// outFormat selects how a sweep command renders its results.
type outFormat int

const (
	formatTable outFormat = iota
	formatCSV
	formatJSON
)

// sweepCmd is one sweep command, or one ablation. All of them parse their
// flags with parseSweepFlags and print through emit; they differ only in
// what they build and how they render it.
type sweepCmd struct {
	name  string
	usage string // description for `o2bench help`
	// build returns the report title and the sweep to run, reduced when
	// quick is set; sweepFlags.configure sets its seed, workers, and
	// repeats.
	build func(quick bool) (string, o2.Sweep)
	// render writes a completed sweep as an aligned table, or as CSV.
	render func(w io.Writer, title string, sw o2.Sweep, res *o2.SweepResult, csv bool) error
}

var sweeps = []sweepCmd{
	{"fig4a", "Figure 4(a): uniform directory popularity", func(quick bool) (string, o2.Sweep) {
		return "Figure 4(a): file system results, uniform directory popularity",
			o2.Fig4aSweep(choose(quick, o2.DefaultFig4Config, o2.QuickFig4Config))
	}, renderFig4},
	{"fig4b", "Figure 4(b): oscillating popularity", func(quick bool) (string, o2.Sweep) {
		return "Figure 4(b): file system results, oscillated directory popularity",
			o2.Fig4bSweep(choose(quick, o2.DefaultFig4Config, o2.QuickFig4Config))
	}, renderFig4},
	{"kv", "KVService scenario: placement policies on a sharded store", func(quick bool) (string, o2.Sweep) {
		return kvSweep(choose(quick, o2.DefaultKVConfig, o2.QuickKVConfig))
	}, columns(o2.KVColumns)},
	{"web", "WebService scenario: open-loop latency tails under background compaction", func(quick bool) (string, o2.Sweep) {
		return webSweep(choose(quick, o2.DefaultWebConfig, o2.QuickWebConfig))
	}, columns(o2.WebColumns)},
	{"soak", "engine endurance: one million direct-handoff requests per cell", func(quick bool) (string, o2.Sweep) {
		return soakSweep(choose(quick, o2.SoakWebConfig, o2.QuickSoakWebConfig))
	}, columns(o2.WebColumns)},
	{"scale", "big-machine sweep: 16-256 cores x service x policy, saturating NUMA bandwidth", func(quick bool) (string, o2.Sweep) {
		return scaleSweep(choose(quick, o2.DefaultScaleConfig, o2.QuickScaleConfig))
	}, columns(o2.ScaleColumns)},
}

func findSweep(name string) *sweepCmd {
	for i := range sweeps {
		if sweeps[i].name == name {
			return &sweeps[i]
		}
	}
	return nil
}

// choose returns the reduced configuration under -quick, else the full one.
func choose[C any](quick bool, full, reduced func() C) C {
	if quick {
		return reduced()
	}
	return full()
}

func kvSweep(cfg o2.KVConfig) (string, o2.Sweep) {
	cfg, sw := o2.KVSweep(cfg)
	return fmt.Sprintf("KVService: sharded key-value store on %s (%d shards × %d KB, %d keys)",
		cfg.Machine.Name(), cfg.Spec.Shards, cfg.Spec.ShardBytes()/1024, cfg.Spec.Keys), sw
}

func webSweep(cfg o2.WebConfig) (string, o2.Sweep) {
	cfg, sw := o2.WebSweep(cfg)
	return fmt.Sprintf("WebService: open-loop name resolution on %s (%d vhosts × %d files, %d KB of metadata)",
		cfg.Machine.Name(), cfg.Spec.DocRoots, cfg.Spec.FilesPerRoot, cfg.Spec.MetadataBytes()/1024), sw
}

func soakSweep(cfg o2.WebConfig) (string, o2.Sweep) {
	cfg, sw := o2.WebSweep(cfg)
	sw.Name = "soak"
	return fmt.Sprintf("Soak: %d direct-handoff requests per cell on %s (%d vhosts × %d files)",
		cfg.Load.Requests, cfg.Machine.Name(), cfg.Spec.DocRoots, cfg.Spec.FilesPerRoot), sw
}

func scaleSweep(cfg o2.ScaleConfig) (string, o2.Sweep) {
	cfg, sw := o2.ScaleSweep(cfg)
	last := cfg.Machines[len(cfg.Machines)-1]
	return fmt.Sprintf("Scale: %d machines up to %s (%d cores), per-core working sets",
		len(cfg.Machines), last.Name(), last.NumCores()), sw
}

// columns renders one row per cell through o2's generic sweep writers.
func columns(cols []o2.Column) func(io.Writer, string, o2.Sweep, *o2.SweepResult, bool) error {
	return func(w io.Writer, title string, _ o2.Sweep, res *o2.SweepResult, csv bool) error {
		if csv {
			res.WriteCSV(w, cols)
		} else {
			res.WriteTable(w, title, cols)
		}
		return nil
	}
}

// renderFig4 renders one row per directory count, pairing its two
// schedulers as the paper's figure does.
func renderFig4(w io.Writer, title string, sw o2.Sweep, res *o2.SweepResult, csv bool) error {
	rows, err := o2.Fig4Rows(sw, res)
	if err != nil {
		return err
	}
	if csv {
		o2.WriteFig4CSV(w, rows)
	} else {
		o2.WriteFig4Table(w, title, rows)
	}
	return nil
}

// sweepFlags are the flags every sweep command shares.
type sweepFlags struct {
	quick            bool
	seed             uint64
	workers, repeats int
	format           outFormat
}

// parseSweepFlags registers the shared sweep flags on fs, next to any
// flags of the command's own, and parses args.
func parseSweepFlags(fs *flag.FlagSet, args []string) (sweepFlags, error) {
	var f sweepFlags
	fs.BoolVar(&f.quick, "quick", false, "reduced configuration (see o2bench help)")
	fs.Uint64Var(&f.seed, "seed", 1, "base RNG seed")
	fs.IntVar(&f.workers, "workers", 0, "parallel sweep workers (0 = all host CPUs)")
	fs.IntVar(&f.repeats, "repeats", 1, "measurements per grid cell (mean/stddev reported)")
	jsonOut := fs.Bool("json", false, "emit machine-readable per-cell sweep results")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	if err := parse(fs, args); err != nil {
		return f, err
	}
	switch {
	case *jsonOut && *csv:
		return f, fmt.Errorf("%w: -json and -csv are mutually exclusive", errUsage)
	case *jsonOut:
		f.format = formatJSON
	case *csv:
		f.format = formatCSV
	}
	return f, nil
}

// configure sets the flags' seed, workers, and repeats on sw, with
// progress on stderr.
func (f sweepFlags) configure(sw *o2.Sweep) {
	sw.Seed, sw.Workers, sw.Repeats, sw.Progress = f.seed, f.workers, f.repeats, os.Stderr
}

// emit runs sw and writes its result to w: JSON for every sweep, else the
// command's own table or CSV rendering.
func emit(w io.Writer, sc *sweepCmd, title string, sw o2.Sweep, format outFormat) error {
	res, err := sw.Run()
	if err != nil {
		return err
	}
	if format == formatJSON {
		return res.WriteJSON(w)
	}
	return sc.render(w, title, sw, res, format == formatCSV)
}

func runSweep(sc *sweepCmd, args []string) error {
	f, err := parseSweepFlags(flag.NewFlagSet(sc.name, flag.ContinueOnError), args)
	if err != nil {
		return err
	}
	title, sw := sc.build(f.quick)
	f.configure(&sw)
	return emit(os.Stdout, sc, title, sw, f.format)
}

func runFig2(w io.Writer, args []string) error {
	cfg := o2.DefaultFig2Config()
	fs := flag.NewFlagSet("fig2", flag.ContinueOnError)
	fs.IntVar(&cfg.Dirs, "dirs", cfg.Dirs, "number of directories")
	fs.IntVar(&cfg.EntriesPerDir, "entries", cfg.EntriesPerDir, "entries per directory (32 bytes each)")
	fs.IntVar(&cfg.Threads, "threads", cfg.Threads, "worker threads")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "workload RNG seed")
	if err := parse(fs, args); err != nil {
		return err
	}
	base, ct, err := o2.Fig2(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Figure 2: cache contents, %d directories × %d entries on %s\n\n",
		cfg.Dirs, cfg.EntriesPerDir, cfg.Machine.Name())
	o2.WriteCacheMap(w, cfg.Machine, base)
	fmt.Fprintln(w)
	o2.WriteCacheMap(w, cfg.Machine, ct)
	return nil
}

func runLatency(w io.Writer) error {
	rows, err := o2.LatencyTable()
	if err != nil {
		return err
	}
	o2.WriteLatencyTable(w, rows)
	return nil
}

func runMigration(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("migration", flag.ContinueOnError)
	trials := fs.Int("trials", 128, "migration round trips to average")
	if err := parse(fs, args); err != nil {
		return err
	}
	r, err := o2.MigrationCost(*trials)
	if err != nil {
		return err
	}
	o2.WriteMigrationResult(w, r)
	return nil
}

// ablationCmds are the ablations of o2.Ablations as sweep commands. They
// are CI-sized already, so -quick selects the same sweeps.
func ablationCmds() []sweepCmd {
	var cmds []sweepCmd
	for _, a := range o2.Ablations() {
		cmds = append(cmds, sweepCmd{a.Name, a.Title, func(bool) (string, o2.Sweep) { return a.Title, a.Sweep },
			columns(o2.AblationColumns)})
	}
	return cmds
}

// runAblation runs the ablation -exp names, or all of them, each through
// emit with the shared sweep flags; a blank line separates their outputs.
func runAblation(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ContinueOnError)
	exp := fs.String("exp", "all", "clustering|replication|replacement|migcost|hetero|paths|single|all")
	f, err := parseSweepFlags(fs, args)
	if err != nil {
		return err
	}
	var selected []sweepCmd
	for _, sc := range ablationCmds() {
		if *exp == "all" || *exp == sc.name {
			selected = append(selected, sc)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("%w: unknown ablation %q", errUsage, *exp)
	}
	for i := range selected {
		sc := &selected[i]
		if i > 0 {
			fmt.Fprintln(w)
		}
		title, sw := sc.build(f.quick)
		f.configure(&sw)
		if err := emit(w, sc, title, sw, f.format); err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
	}
	return nil
}

// runAll runs every command but trace, passing args to each sweep.
func runAll(args []string) error {
	if err := runLatency(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := runMigration(os.Stdout, nil); err != nil {
		return err
	}
	fmt.Println()
	if err := runFig2(os.Stdout, nil); err != nil {
		return err
	}
	fmt.Println()
	for i := range sweeps {
		if err := runSweep(&sweeps[i], args); err != nil {
			return err
		}
		fmt.Println()
	}
	return runAblation(os.Stdout, append([]string{"-exp=all"}, args...))
}
