package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/o2"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenCase is a reduced, fully deterministic configuration of one sweep
// command. It exists to pin the command's -json and -csv output and the
// determinism contract, not to reproduce full-scale numbers. Every case
// runs with seed 7 and two repeats; its goldens are taken at 4 workers.
type goldenCase struct {
	sc     *sweepCmd                 // sweep command whose emit path renders the case
	golden string                    // testdata/<golden>_tiny.{json,csv}
	build  func() (string, o2.Sweep) // title and sweep of the reduced configuration
	table  []string                  // substrings the aligned table must contain
}

var goldenCases = map[string]goldenCase{
	"fig4": {findSweep("fig4a"), "fig4", func() (string, o2.Sweep) { return "Figure 4(a)", o2.Fig4aSweep(goldenFig4Config()) },
		[]string{"without-CT", "±"}},
	"kv": {findSweep("kv"), "kv", func() (string, o2.Sweep) { return kvSweep(goldenKVConfig()) },
		[]string{"policy", "kops/sec", "coretime+repl", "±"}},
	"web": {findSweep("web"), "web", func() (string, o2.Sweep) { return webSweep(goldenWebConfig()) },
		[]string{"rps", "compaction", "policy", "p99 (cycles)", "coretime+repl", "±"}},
	"scale": {findSweep("scale"), "scale", func() (string, o2.Sweep) { return scaleSweep(goldenScaleConfig()) },
		[]string{"machine", "service", "policy", "kops/sec/core", "numa256", "dirlookup", "±"}},
	"soak": {findSweep("soak"), "soak", func() (string, o2.Sweep) { return soakSweep(o2.QuickSoakWebConfig()) },
		[]string{"Soak", "rps", "p99 (cycles)", "coretime", "±"}},
}

// The ablations are CI-sized already: each golden case is the ablation's
// own sweep, named after its command, ablation_<name>.
func init() {
	for _, sc := range ablationCmds() {
		goldenCases["ablation_"+sc.name] = goldenCase{&sc, "ablation_" + sc.name,
			func() (string, o2.Sweep) { return sc.build(false) },
			[]string{"# " + sc.usage, "kops/sec", "migrations", "±"}}
	}
}

// goldenFig4Config is a reduced Figure-4 sweep: small machine, two grid
// points.
func goldenFig4Config() o2.Fig4Config {
	p := o2.DefaultRunParams()
	p.Threads = 4
	p.Warmup = 200_000
	p.Measure = 400_000
	return o2.Fig4Config{Machine: o2.Tiny8, DirCounts: []int{2, 6}, EntriesPerDir: 128, Params: p}
}

// goldenKVConfig is a reduced KVService sweep: Tiny8 machine, a
// kilobyte-scale store, two mixes × two skews × every placement policy.
func goldenKVConfig() o2.KVConfig {
	cfg := o2.QuickKVConfig()
	cfg.Spec = o2.KVSpec{Shards: 8, SlotsPerShard: 64, SlotBytes: 64, Keys: 1 << 12}
	cfg.Load = o2.KVLoad{Clients: 8, OpsPerClient: 150}
	cfg.Skews = []float64{0, 0.99}
	return cfg
}

// goldenWebConfig is a reduced WebService sweep: Tiny8 machine, a small
// document tree, two arrival rates (one under and one past saturation) ×
// two compaction shares × every placement policy. Arrival schedules,
// queue/drop accounting, and merged latency histograms must all be a
// pure function of the grid.
func goldenWebConfig() o2.WebConfig {
	cfg := o2.QuickWebConfig()
	cfg.Spec = o2.WebSpec{DocRoots: 8, FilesPerRoot: 64}
	cfg.Load.Requests = 200
	cfg.Rates = []float64{500_000, 4_000_000}
	cfg.CompactionShares = []float64{0, 0.5}
	return cfg
}

// goldenScaleConfig is a reduced scale sweep that still spans the
// extremes: the 8-core Tiny8 machine and the 256-core NUMA256 machine —
// the latter exercising the multi-word sharer bitset and the saturating
// bandwidth meters under the sweep engine — across both services and
// every scale policy.
func goldenScaleConfig() o2.ScaleConfig {
	cfg := o2.QuickScaleConfig()
	cfg.Machines = []o2.Topology{o2.Tiny8, o2.NUMA256}
	cfg.DirsPerCore = 2
	cfg.EntriesPerDir = 64
	cfg.Params.Warmup = 100_000
	cfg.Params.Measure = 200_000
	cfg.ShardsPerCore = 1
	cfg.SlotsPerShard = 32
	cfg.Load.OpsPerClient = 30
	return cfg
}

// output runs a golden case at the given worker count and renders it
// through the sweep commands' one emit path.
func output(t *testing.T, gc goldenCase, workers int, format outFormat) []byte {
	t.Helper()
	title, sw := gc.build()
	sw.Seed, sw.Repeats, sw.Workers = 7, 2, workers
	var buf bytes.Buffer
	if err := emit(&buf, gc.sc, title, sw, format); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGolden pins a case's -json and -csv bytes: field names, nesting,
// metric keys, and the simulation's values. If the schema or the
// simulation changes intentionally, regenerate with `go test
// ./cmd/o2bench -update` and review the diff.
func checkGolden(t *testing.T, name string) {
	gc := goldenCases[name]
	for _, f := range []struct {
		ext    string
		format outFormat
	}{{".json", formatJSON}, {".csv", formatCSV}} {
		got := output(t, gc, 4, f.format)
		golden := filepath.Join("testdata", gc.golden+"_tiny"+f.ext)
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("reading golden file (regenerate with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("o2bench %s output drifted from %s.\nGot:\n%s\nWant:\n%s\nIf intentional, rerun with -update and review.",
				gc.sc.name, golden, got, want)
		}
	}
}

// checkWorkerInvariance reruns a case at -workers 1 and -workers NumCPU:
// both JSON byte streams must match the golden exactly, because results
// are a pure function of the grid, never of the host.
func checkWorkerInvariance(t *testing.T, name string) {
	gc := goldenCases[name]
	want, err := os.ReadFile(filepath.Join("testdata", gc.golden+"_tiny.json"))
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		if !bytes.Equal(output(t, gc, workers, formatJSON), want) {
			t.Errorf("-workers=%d JSON differs from the golden (-workers=4) output", workers)
		}
	}
}

// checkTable checks the aligned table renders a case's headers, labels,
// and repeat stddevs.
func checkTable(t *testing.T, name string) {
	gc := goldenCases[name]
	table := output(t, gc, 4, formatTable)
	for _, want := range gc.table {
		if !bytes.Contains(table, []byte(want)) {
			t.Errorf("o2bench %s table missing %q:\n%s", gc.sc.name, want, table)
		}
	}
}

func TestFig4JSONGolden(t *testing.T)            { checkGolden(t, "fig4") }
func TestFig4JSONWorkerInvariance(t *testing.T)  { checkWorkerInvariance(t, "fig4") }
func TestFig4TableSmoke(t *testing.T)            { checkTable(t, "fig4") }
func TestKVJSONGolden(t *testing.T)              { checkGolden(t, "kv") }
func TestKVJSONWorkerInvariance(t *testing.T)    { checkWorkerInvariance(t, "kv") }
func TestKVTableSmoke(t *testing.T)              { checkTable(t, "kv") }
func TestWebJSONGolden(t *testing.T)             { checkGolden(t, "web") }
func TestWebJSONWorkerInvariance(t *testing.T)   { checkWorkerInvariance(t, "web") }
func TestWebTableSmoke(t *testing.T)             { checkTable(t, "web") }
func TestScaleJSONGolden(t *testing.T)           { checkGolden(t, "scale") }
func TestScaleJSONWorkerInvariance(t *testing.T) { checkWorkerInvariance(t, "scale") }
func TestScaleTableSmoke(t *testing.T)           { checkTable(t, "scale") }
func TestSoakJSONGolden(t *testing.T)            { checkGolden(t, "soak") }
func TestSoakJSONWorkerInvariance(t *testing.T)  { checkWorkerInvariance(t, "soak") }
func TestSoakTableSmoke(t *testing.T)            { checkTable(t, "soak") }

// forAblations runs check on every ablation's golden case.
func forAblations(t *testing.T, check func(*testing.T, string)) {
	for _, a := range o2.Ablations() {
		t.Run(a.Name, func(t *testing.T) { check(t, "ablation_"+a.Name) })
	}
}

func TestAblationJSONGolden(t *testing.T)           { forAblations(t, checkGolden) }
func TestAblationJSONWorkerInvariance(t *testing.T) { forAblations(t, checkWorkerInvariance) }
func TestAblationTableSmoke(t *testing.T)           { forAblations(t, checkTable) }

// checkTextGolden pins the full stdout of a command that is not a sweep
// against testdata/<name>.txt (regenerate with -update).
func checkTextGolden(t *testing.T, name string, run func(io.Writer) error) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", name+".txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("o2bench %s output drifted from %s.\nGot:\n%s\nWant:\n%s\nIf intentional, rerun with -update and review.",
			name, golden, buf.Bytes(), want)
	}
}

func TestLatencyGolden(t *testing.T) { checkTextGolden(t, "latency", runLatency) }

func TestMigrationGolden(t *testing.T) {
	checkTextGolden(t, "migration", func(w io.Writer) error { return runMigration(w, nil) })
}

func TestFig2Golden(t *testing.T) {
	checkTextGolden(t, "fig2", func(w io.Writer) error { return runFig2(w, nil) })
}

// TestSweepFlagsConfigureSweep checks that the shared flags land on the
// sweep of every sweep command and ablation, and that each sweep carries
// its command's name into the results.
func TestSweepFlagsConfigureSweep(t *testing.T) {
	for _, sc := range append(append([]sweepCmd(nil), sweeps...), ablationCmds()...) {
		f, err := parseSweepFlags(flag.NewFlagSet(sc.name, flag.ContinueOnError),
			[]string{"-quick", "-seed", "9", "-workers", "3", "-repeats", "2", "-csv"})
		if err != nil {
			t.Fatal(err)
		}
		_, sw := sc.build(f.quick)
		f.configure(&sw)
		if sw.Name != sc.name || sw.Seed != 9 || sw.Workers != 3 || sw.Repeats != 2 || f.format != formatCSV {
			t.Errorf("%s: sweep %q seed %d workers %d repeats %d format %d", sc.name, sw.Name, sw.Seed, sw.Workers, sw.Repeats, f.format)
		}
	}
}

// TestRunUsageErrors pins how command-line mistakes exit: -h on any
// command exits 0; a bad flag, -json with -csv, an unknown command, or an
// unknown ablation exits 2.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want error
		code int
	}{
		{[]string{"kv", "-h"}, flag.ErrHelp, 0},
		{[]string{"fig2", "-h"}, flag.ErrHelp, 0},
		{[]string{"kv", "-bogus"}, errUsage, 2},
		{[]string{"trace", "-bogus"}, errUsage, 2},
		{[]string{"kv", "-json", "-csv"}, errUsage, 2},
		{[]string{"nosuch"}, errUsage, 2},
		{[]string{"ablation", "-exp=bogus"}, errUsage, 2},
		{[]string{"ablation", "-json", "-csv"}, errUsage, 2},
	} {
		err := run(tc.args[0], tc.args[1:])
		if !errors.Is(err, tc.want) || exitCode(err) != tc.code {
			t.Errorf("run %v = %v (exit %d), want %v (exit %d)", tc.args, err, exitCode(err), tc.want, tc.code)
		}
	}
}
