// Command o2bench regenerates the figures and tables of "Reinventing
// Scheduling for Multicore Systems" (HotOS 2009) on the simulated AMD16
// machine, the ablations of the design extensions from §6, and the
// service and big-machine scenarios built on them. It is a thin wrapper
// over the public repro/o2 package; `o2bench help` lists every command
// and its flags.
//
// The sweep commands are the presets of o2.Presets (fig4a, fig4b, kv,
// web, soak, scale) and o2.Ablations (`ablation -exp=NAME`). They share
// one set of flags: -quick selects the reduced configuration, -seed the
// base seed, -workers bounds the worker pool (default: all host CPUs),
// -repeats measures every grid cell that many times with distinct
// derived seeds and reports mean±stddev, and -json or -csv replace the
// aligned table (both pinned by the golden tests under
// o2/testdata/presets). No output depends on -workers.
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
	"strings"

	"repro/o2"
)

func main() {
	global := flag.NewFlagSet("o2bench", flag.ExitOnError)
	global.Usage = func() { usage(os.Stderr) }
	cpuprofile := global.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := global.String("memprofile", "", "write a heap profile to this file on exit")
	// Parse stops at the first non-flag argument: the command.
	if err := global.Parse(os.Args[1:]); err != nil || global.NArg() < 1 {
		usage(os.Stderr)
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
	for _, p := range o2.Presets() {
		if p.Name == cmd {
			return runPreset(p, args)
		}
	}
	switch cmd {
	case "fig2":
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
		usage(os.Stderr)
		return nil
	}
	usage(os.Stderr)
	return fmt.Errorf("%w: unknown command %q", errUsage, cmd)
}

func usage(w io.Writer) {
	fmt.Fprint(w, "o2bench — reproduce the paper's evaluation\n\n",
		"  o2bench [-cpuprofile FILE] [-memprofile FILE] COMMAND [flags]\n\n")
	for _, p := range o2.Presets() {
		fmt.Fprintf(w, "  o2bench %s [-quick] [-seed N] [-workers N] [-repeats N] [-json|-csv]\n%37s%s\n",
			p.Name, "", p.Usage)
	}
	fmt.Fprintf(w, `  o2bench fig2 [-dirs N] [-entries N] [-threads N] [-seed N]
                                     Figure 2: cache-contents maps
  o2bench trace [-quick] [-seed N] [-interval C] [-out FILE]
                                     telemetry timeline: one open-loop NUMA256 cell under
                                     CoreTime, exported as Chrome trace-event JSON for
                                     chrome://tracing / Perfetto
  o2bench latency                    hardware latency table (§5)
  o2bench migration [-trials N]      migration cost microbenchmark (§5)
  o2bench ablation -exp=NAME [-quick] [-seed N] [-workers N] [-repeats N] [-json|-csv]
                                     §6 ablations, NAME one of
                                     %s (default all)
  o2bench all [sweep flags]          latency, migration, fig2, every sweep above, and the ablations
`, ablationNames())
}

// outFormat selects how a sweep command renders its results.
type outFormat int

const (
	formatTable outFormat = iota
	formatCSV
	formatJSON
)

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

// emit writes res, the result of sw, which p built, to w: JSON for every
// preset, else the preset's own table or CSV rendering.
func emit(w io.Writer, p o2.Preset, title string, sw o2.Sweep, res *o2.SweepResult, format outFormat) error {
	if format == formatJSON {
		return res.WriteJSON(w)
	}
	return p.Render(w, title, sw, res, format == formatCSV)
}

// runPreset runs p under the shared sweep flags, to stdout.
func runPreset(p o2.Preset, args []string) error {
	f, err := parseSweepFlags(flag.NewFlagSet(p.Name, flag.ContinueOnError), args)
	if err != nil {
		return err
	}
	return f.run(os.Stdout, p)
}

// run builds p, reduced under -quick, configures it from the flags, runs
// it, and emits its result to w.
func (f sweepFlags) run(w io.Writer, p o2.Preset) error {
	title, sw := p.Build(f.quick)
	f.configure(&sw)
	res, err := sw.Run()
	if err != nil {
		return err
	}
	return emit(w, p, title, sw, res, f.format)
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

// ablationNames lists the values of -exp: every ablation, then all.
func ablationNames() string {
	var names []string
	for _, a := range o2.Ablations() {
		names = append(names, a.Name)
	}
	return strings.Join(append(names, "all"), "|")
}

// runAblation runs the ablation -exp names, or all of them, each through
// emit with the shared sweep flags; a blank line separates their outputs.
func runAblation(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ContinueOnError)
	exp := fs.String("exp", "all", ablationNames())
	f, err := parseSweepFlags(fs, args)
	if err != nil {
		return err
	}
	var selected []o2.Preset
	for _, a := range o2.Ablations() {
		if *exp == "all" || *exp == a.Name {
			selected = append(selected, a)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("%w: unknown ablation %q", errUsage, *exp)
	}
	for i, a := range selected {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := f.run(w, a); err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	return nil
}

// runAll runs every command but trace, passing args to each preset.
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
	for _, p := range o2.Presets() {
		if err := runPreset(p, args); err != nil {
			return err
		}
		fmt.Println()
	}
	return runAblation(os.Stdout, append([]string{"-exp=all"}, args...))
}
