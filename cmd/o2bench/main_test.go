package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/o2"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenCase runs one preset through the command line's flag parser and
// emit path against the preset's golden output in o2/testdata/presets,
// which o2's own table-driven test pins and regenerates. Every case runs
// with -seed 7 -repeats 2 and its goldens are taken at -workers 4.
type goldenCase struct {
	preset o2.Preset
	// narrow reduces the preset's -quick sweep to the golden's fixture
	// through the sweep's exported fields; nil when -quick is the
	// fixture. The axes it replaces are rebuilt here with the preset's
	// axis names and labels.
	narrow func(*o2.Sweep)
	table  []string // substrings the aligned table must contain
}

var goldenCases = map[string]goldenCase{
	"fig4": {findPreset("fig4a"), narrowFig4, []string{"without-CT", "±"}},
	"kv":   {findPreset("kv"), narrowKV, []string{"policy", "kops/sec", "coretime+repl", "±"}},
	"web": {findPreset("web"), narrowWeb,
		[]string{"rps", "compaction", "policy", "p99 (cycles)", "coretime+repl", "±"}},
	"scale": {findPreset("scale"), narrowScale,
		[]string{"machine", "service", "policy", "kops/sec/core", "numa256", "dirlookup", "±"}},
	"soak": {findPreset("soak"), nil, []string{"Soak", "rps", "p99 (cycles)", "coretime", "±"}},
}

// The ablations are CI-sized already: each golden case is the ablation's
// own sweep, ablation_<name>.
func init() {
	for _, a := range o2.Ablations() {
		title, _ := a.Build(true)
		goldenCases["ablation_"+a.Name] = goldenCase{a, nil, []string{"# " + title, "kops/sec", "migrations", "±"}}
	}
}

func findPreset(name string) o2.Preset {
	for _, p := range o2.Presets() {
		if p.Name == name {
			return p
		}
	}
	panic("no preset " + name)
}

// narrowFig4 is o2's reduced Figure-4 fixture: small machine, two grid
// points.
func narrowFig4(sw *o2.Sweep) {
	p := o2.DefaultRunParams()
	p.Threads, p.Warmup, p.Measure = 4, 200_000, 400_000
	sw.Base = o2.Cell{Machine: o2.Tiny8, Scenario: o2.DirLookupScenario{Params: p}}
	sw.Axes[0] = o2.Axis{Name: "dirs"}
	for _, n := range []int{2, 6} {
		sw.Axes[0].Values = append(sw.Axes[0].Values, o2.AxisValue{
			Label: strconv.Itoa(n),
			Apply: func(c *o2.Cell) {
				s := c.Scenario.(o2.DirLookupScenario)
				s.Tree = o2.DirSpec{Dirs: n, EntriesPerDir: 128}
				c.Scenario = s
			},
		})
	}
}

// narrowKV is o2's reduced kv fixture: a kilobyte-scale store and eight
// clients.
func narrowKV(sw *o2.Sweep) {
	sw.Base.Scenario = o2.KVScenario{
		Spec: o2.KVSpec{Shards: 8, SlotsPerShard: 64, SlotBytes: 64, Keys: 1 << 12},
		Load: o2.KVLoad{Clients: 8, OpsPerClient: 150},
	}
}

// narrowWeb is o2's reduced web fixture: a small document tree, 200
// requests per cell, and one arrival rate under and one past saturation.
func narrowWeb(sw *o2.Sweep) {
	sc := sw.Base.Scenario.(o2.WebScenario)
	sc.Spec = o2.WebSpec{DocRoots: 8, FilesPerRoot: 64}
	sc.Load.Requests = 200
	sw.Base.Scenario = sc
	sw.Axes[0] = o2.Axis{Name: "rps"}
	for _, rps := range []float64{500_000, 4_000_000} {
		sw.Axes[0].Values = append(sw.Axes[0].Values, o2.AxisValue{
			Label: fmt.Sprintf("%gk", rps/1000),
			Apply: func(c *o2.Cell) {
				s := c.Scenario.(o2.WebScenario)
				s.Load.RPS = rps
				c.Scenario = s
			},
		})
	}
}

// narrowScale is o2's reduced scale fixture: the Tiny8 and NUMA256
// machines, each service's per-core working set shrunk after the service
// axis sizes it.
func narrowScale(sw *o2.Sweep) {
	sw.Axes[0] = o2.Axis{Name: "machine"}
	for _, m := range []o2.Topology{o2.Tiny8, o2.NUMA256} {
		sw.Axes[0].Values = append(sw.Axes[0].Values,
			o2.AxisValue{Label: m.Name(), Apply: func(c *o2.Cell) { c.Machine = m }})
	}
	services := sw.Axes[1].Values
	for i := range services {
		apply := services[i].Apply
		services[i].Apply = func(c *o2.Cell) {
			apply(c)
			cores := c.Machine.NumCores()
			switch s := c.Scenario.(type) {
			case o2.KVScenario:
				s.Spec.Shards, s.Spec.SlotsPerShard, s.Load.OpsPerClient = cores, 32, 30
				c.Scenario = s
			case o2.DirLookupScenario:
				s.Tree = o2.DirSpec{Dirs: 2 * cores, EntriesPerDir: 64}
				s.Params.Warmup, s.Params.Measure = 100_000, 200_000
				c.Scenario = s
			}
		}
	}
}

// outputs are one run of a golden case, emitted in each format.
type outputs struct{ json, csv, table []byte }

// runs holds each golden case's outputs by worker count. The golden,
// invariance and table tests of a case ask for the same runs; results are
// a pure function of the case and the flags, so each run is simulated
// once and emitted in every format.
var runs = map[string]outputs{}

// output runs a golden case at the given worker count through the shared
// sweep flags and emits the result once per format through the one emit
// path.
func output(t *testing.T, name string, workers int) outputs {
	t.Helper()
	key := name + "/" + strconv.Itoa(workers)
	if o, ok := runs[key]; ok {
		return o
	}
	gc := goldenCases[name]
	var (
		o   outputs
		res *o2.SweepResult
	)
	for _, out := range []struct {
		flag string
		dst  *[]byte
	}{{"-json", &o.json}, {"-csv", &o.csv}, {"", &o.table}} {
		args := []string{"-quick", "-seed", "7", "-repeats", "2", "-workers", strconv.Itoa(workers)}
		if out.flag != "" {
			args = append(args, out.flag)
		}
		f, err := parseSweepFlags(flag.NewFlagSet(gc.preset.Name, flag.ContinueOnError), args)
		if err != nil {
			t.Fatal(err)
		}
		title, sw := gc.preset.Build(f.quick)
		if gc.narrow != nil {
			gc.narrow(&sw)
		}
		f.configure(&sw)
		sw.Progress = nil
		if res == nil {
			if res, err = sw.Run(); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := emit(&buf, gc.preset, title, sw, res, f.format); err != nil {
			t.Fatal(err)
		}
		*out.dst = buf.Bytes()
	}
	runs[key] = o
	return o
}

// golden is the preset's golden output with extension ext.
func golden(gc goldenCase, ext string) string {
	return filepath.Join("..", "..", "o2", "testdata", "presets", gc.preset.Name+"_tiny"+ext)
}

// checkGolden pins a case's -json and -csv bytes to the preset's goldens.
// Regenerate them with `go test ./o2 -run PresetJSONGolden -update`.
func checkGolden(t *testing.T, name string) {
	gc := goldenCases[name]
	o := output(t, name, 4)
	for _, f := range []struct {
		flag, ext string
		got       []byte
	}{{"-json", ".json", o.json}, {"-csv", ".csv", o.csv}} {
		want, err := os.ReadFile(golden(gc, f.ext))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.got, want) {
			t.Errorf("o2bench %s %s output drifted from %s.\nGot:\n%s\nWant:\n%s",
				gc.preset.Name, f.flag, golden(gc, f.ext), f.got, want)
		}
	}
}

// checkWorkerInvariance runs a case at -workers 1 and -workers NumCPU:
// both JSON byte streams must match the golden exactly, because results
// are a pure function of the grid, never of the host.
func checkWorkerInvariance(t *testing.T, name string) {
	gc := goldenCases[name]
	want, err := os.ReadFile(golden(gc, ".json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		if !bytes.Equal(output(t, name, workers).json, want) {
			t.Errorf("-workers=%d JSON differs from the golden (-workers=4) output", workers)
		}
	}
}

// checkTable checks the aligned table renders a case's headers, labels,
// and repeat stddevs.
func checkTable(t *testing.T, name string) {
	gc := goldenCases[name]
	table := output(t, name, 4).table
	for _, want := range gc.table {
		if !bytes.Contains(table, []byte(want)) {
			t.Errorf("o2bench %s table missing %q:\n%s", gc.preset.Name, want, table)
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

// TestCommandOutputMatchesGolden runs the ablation command itself,
// `o2bench ablation -exp=single`, once per output format: -exp selection,
// the shared flags on the command's own flag set, Build, configure, the
// run and emit. Its -json and -csv bytes must equal the single ablation's
// goldens, which o2's TestPresetJSONGolden pins and regenerates; its
// aligned table must show the title, the columns and the repeat stddevs.
// The golden cases above enter below runAblation, at the shared flags.
func TestCommandOutputMatchesGolden(t *testing.T) {
	var title string
	for _, a := range o2.Ablations() {
		if a.Name == "single" {
			title, _ = a.Build(true)
		}
	}
	for _, format := range []string{"-json", "-csv", ""} {
		args := []string{"-exp=single", "-quick", "-seed", "7", "-repeats", "2", "-workers", "4"}
		if format != "" {
			args = append(args, format)
		}
		var buf bytes.Buffer
		if err := runAblation(&buf, args); err != nil {
			t.Fatal(err)
		}
		if format == "" {
			for _, want := range []string{"# " + title, "kops/sec", "migrations", "±"} {
				if !bytes.Contains(buf.Bytes(), []byte(want)) {
					t.Errorf("ablation table missing %q:\n%s", want, buf.Bytes())
				}
			}
			continue
		}
		golden := filepath.Join("..", "..", "o2", "testdata", "presets", "single_tiny."+format[1:])
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("o2bench ablation %s output drifted from %s.\nGot:\n%s\nWant:\n%s",
				format, golden, buf.Bytes(), want)
		}
	}
}

// TestSweepFlagsConfigureSweep checks, for every output format with and
// without -quick, that the shared flags land on the sweep of every preset
// and ablation, and that each sweep carries its preset's name into the
// results.
func TestSweepFlagsConfigureSweep(t *testing.T) {
	for _, format := range []struct {
		flag string
		want outFormat
	}{{"-json", formatJSON}, {"-csv", formatCSV}, {"", formatTable}} {
		for _, quick := range []bool{true, false} {
			args := []string{"-seed", "9", "-workers", "3", "-repeats", "2"}
			if quick {
				args = append(args, "-quick")
			}
			if format.flag != "" {
				args = append(args, format.flag)
			}
			for _, p := range append(o2.Presets(), o2.Ablations()...) {
				f, err := parseSweepFlags(flag.NewFlagSet(p.Name, flag.ContinueOnError), args)
				if err != nil {
					t.Fatal(err)
				}
				_, sw := p.Build(f.quick)
				f.configure(&sw)
				if f.format != format.want || f.quick != quick || sw.Name != p.Name ||
					sw.Seed != 9 || sw.Workers != 3 || sw.Repeats != 2 {
					t.Errorf("%s %v: format %d quick %v, sweep %q seed %d workers %d repeats %d",
						p.Name, args, f.format, f.quick, sw.Name, sw.Seed, sw.Workers, sw.Repeats)
				}
			}
		}
	}
}

// TestHelpListsPresets checks that `o2bench help` names every preset and
// every ablation, and that -exp's help lists exactly the ablations, then
// all.
func TestHelpListsPresets(t *testing.T) {
	var help bytes.Buffer
	usage(&help)
	for _, p := range o2.Presets() {
		if !strings.Contains(help.String(), "o2bench "+p.Name+" [") {
			t.Errorf("help does not list preset %q:\n%s", p.Name, help.String())
		}
	}
	var names []string
	for _, a := range o2.Ablations() {
		names = append(names, a.Name)
		if !strings.Contains(help.String(), a.Name+"|") {
			t.Errorf("help does not list ablation %q:\n%s", a.Name, help.String())
		}
	}
	if got, want := ablationNames(), strings.Join(append(names, "all"), "|"); got != want {
		t.Errorf("-exp help lists %q, want %q", got, want)
	}
}

// TestRunUsageErrors pins how command-line mistakes exit: -h on any
// command exits 0; a bad flag, -json with -csv, an unknown command, or an
// unknown ablation exits 2. trace takes no -workers flag, and fig2 has no
// second name.
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
		{[]string{"trace", "-workers", "2"}, errUsage, 2},
		{[]string{"kv", "-json", "-csv"}, errUsage, 2},
		{[]string{"nosuch"}, errUsage, 2},
		{[]string{"cachemap"}, errUsage, 2},
		{[]string{"ablation", "-exp=bogus"}, errUsage, 2},
		{[]string{"ablation", "-json", "-csv"}, errUsage, 2},
	} {
		err := run(tc.args[0], tc.args[1:])
		if !errors.Is(err, tc.want) || exitCode(err) != tc.code {
			t.Errorf("run %v = %v (exit %d), want %v (exit %d)", tc.args, err, exitCode(err), tc.want, tc.code)
		}
	}
}
