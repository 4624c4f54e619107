package o2

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// tinyPresets are reduced, fully deterministic configurations of the
// sweep presets. They exist to pin each preset's JSON and CSV bytes and
// the determinism contract, not to reproduce full-scale numbers. The
// ablations are CI-sized already, so their fixture is their own sweep.
var tinyPresets = map[string]func() (string, Sweep){
	"fig4a": func() (string, Sweep) { return fig4aSweep(tinyFig4Config()) },
	"fig4b": func() (string, Sweep) { return fig4bSweep(tinyFig4bConfig()) },
	"kv":    func() (string, Sweep) { return kvSweep(tinyKVConfig()) },
	"web":   func() (string, Sweep) { return webSweep(tinyWebConfig()) },
	"soak":  func() (string, Sweep) { return soakSweep(quickSoakWebConfig()) },
	"scale": func() (string, Sweep) { return scaleSweep(tinyScaleConfig()) },
}

// presetTables are the substrings each preset's aligned table must
// contain; an ablation's table must show its title and columns.
var presetTables = map[string][]string{
	"fig4a": {"without-CT", "±"},
	"fig4b": {"without-CT", "±"},
	"kv":    {"policy", "kops/sec", "coretime+repl", "±"},
	"web":   {"rps", "compaction", "policy", "p99 (cycles)", "coretime+repl", "±"},
	"soak":  {"Soak", "rps", "p99 (cycles)", "coretime", "±"},
	"scale": {"machine", "service", "policy", "kops/sec/core", "numa256", "dirlookup", "±"},
}

// tinyFig4Config is a reduced Figure-4 sweep: small machine, two grid
// points.
func tinyFig4Config() fig4Config {
	p := DefaultRunParams()
	p.Threads = 4
	p.Warmup = 200_000
	p.Measure = 400_000
	return fig4Config{Machine: Tiny8, DirCounts: []int{2, 6}, EntriesPerDir: 128, Params: p}
}

// tinyFig4bConfig is a reduced Figure-4(b) sweep whose oscillation is
// short and whose larger grid point overfills the placement budget, so
// CoreTime's monitor rebalances, moves, and unplaces directories inside
// the measured window.
func tinyFig4bConfig() fig4Config {
	cfg := tinyFig4Config()
	cfg.DirCounts, cfg.EntriesPerDir = []int{12, 24}, 256
	cfg.Params.Threads = 8
	cfg.Params.OscillatePeriod = 100_000
	cfg.Params.OscillateDivisor = 4
	return cfg
}

// tinyKVConfig is a reduced kv sweep: Tiny8 machine, a kilobyte-scale
// store, two mixes × two skews × every placement policy.
func tinyKVConfig() kvConfig {
	cfg := quickKVConfig()
	cfg.Spec = KVSpec{Shards: 8, SlotsPerShard: 64, SlotBytes: 64, Keys: 1 << 12}
	cfg.Load = KVLoad{Clients: 8, OpsPerClient: 150}
	cfg.Skews = []float64{0, 0.99}
	return cfg
}

// tinyWebConfig is a reduced web sweep: Tiny8 machine, a small document
// tree, two arrival rates (one under and one past saturation) × two
// compaction shares × every placement policy. Arrival schedules,
// queue/drop accounting, and merged latency histograms must all be a
// pure function of the grid.
func tinyWebConfig() webConfig {
	cfg := quickWebConfig()
	cfg.Spec = WebSpec{DocRoots: 8, FilesPerRoot: 64}
	cfg.Load.Requests = 200
	cfg.Rates = []float64{500_000, 4_000_000}
	cfg.CompactionShares = []float64{0, 0.5}
	return cfg
}

// tinyScaleConfig is a reduced scale sweep that still spans the
// extremes: the 8-core Tiny8 machine and the 256-core NUMA256 machine —
// the latter exercising the multi-word sharer bitset and the saturating
// bandwidth meters under the sweep engine — across both services and
// every scale policy.
func tinyScaleConfig() scaleConfig {
	cfg := quickScaleConfig()
	cfg.Machines = []Topology{Tiny8, NUMA256}
	cfg.DirsPerCore = 2
	cfg.EntriesPerDir = 64
	cfg.Params.Warmup = 100_000
	cfg.Params.Measure = 200_000
	cfg.ShardsPerCore = 1
	cfg.SlotsPerShard = 32
	cfg.Load.OpsPerClient = 30
	return cfg
}

// allPresets is every preset: Presets, then Ablations.
func allPresets() []Preset { return append(Presets(), Ablations()...) }

// tinyPreset returns the title and reduced sweep of p.
func tinyPreset(t *testing.T, p Preset) (string, Sweep) {
	t.Helper()
	if tiny, ok := tinyPresets[p.Name]; ok {
		return tiny()
	}
	for _, a := range Ablations() {
		if a.Name == p.Name {
			return p.Build(true)
		}
	}
	t.Fatalf("preset %q has no tiny fixture", p.Name)
	return "", Sweep{}
}

// presetGolden is the golden file of p's output with extension ext.
func presetGolden(p Preset, ext string) string {
	return filepath.Join("testdata", "presets", p.Name+"_tiny"+ext)
}

// presetOutput runs p's reduced sweep at seed 7 with two repeats on the
// given number of workers and renders the result as JSON, as CSV, and as
// the aligned table.
func presetOutput(t *testing.T, p Preset, workers int) (json, csv, table []byte) {
	t.Helper()
	title, sw := tinyPreset(t, p)
	sw.Seed, sw.Repeats, sw.Workers = 7, 2, workers
	res, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	var out [3]bytes.Buffer
	if err := res.WriteJSON(&out[0]); err != nil {
		t.Fatal(err)
	}
	for i, csv := range []bool{true, false} {
		if err := p.Render(&out[i+1], title, sw, res, csv); err != nil {
			t.Fatal(err)
		}
	}
	return out[0].Bytes(), out[1].Bytes(), out[2].Bytes()
}

// TestPresetJSONGolden pins every preset's -json and -csv bytes at four
// workers — field names, nesting, metric keys, and the simulation's
// values — and checks the aligned table renders each preset's headers,
// labels, and repeat stddevs. WorkerInvariance reruns the JSON at one
// and at NumCPU workers, skipping a count already run, which must match
// the golden exactly because results are a pure function of the grid,
// never of the host. If the
// schema or the simulation changes intentionally, regenerate with `go
// test ./o2 -run PresetJSONGolden -update` and review the diff.
func TestPresetJSONGolden(t *testing.T) {
	for _, p := range allPresets() {
		t.Run(p.Name, func(t *testing.T) {
			json, csv, table := presetOutput(t, p, 4)
			for ext, got := range map[string][]byte{".json": json, ".csv": csv} {
				golden := presetGolden(p, ext)
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
					t.Errorf("preset %s output drifted from %s.\nGot:\n%s\nWant:\n%s\nIf intentional, rerun with -update and review.",
						p.Name, golden, got, want)
				}
			}
			title, _ := p.Build(true)
			want := presetTables[p.Name]
			if want == nil {
				want = []string{"# " + title, "kops/sec", "migrations", "±"}
			}
			for _, s := range want {
				if !bytes.Contains(table, []byte(s)) {
					t.Errorf("preset %s table missing %q:\n%s", p.Name, s, table)
				}
			}
			t.Run("WorkerInvariance", func(t *testing.T) {
				counts := []int{1}
				if n := runtime.NumCPU(); n != 1 && n != 4 {
					counts = append(counts, n)
				}
				for _, workers := range counts {
					if got, _, _ := presetOutput(t, p, workers); !bytes.Equal(got, json) {
						t.Errorf("-workers=%d JSON differs from the -workers=4 output", workers)
					}
				}
			})
		})
	}
}

// TestPresetsHaveGoldens checks that every preset name is unique, has a
// reduced fixture, and has both a JSON and a CSV golden, and that no
// golden outlives its preset. TestPresetJSONGolden runs the golden and
// worker-invariance checks over the same list.
func TestPresetsHaveGoldens(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range allPresets() {
		if seen[p.Name] {
			t.Errorf("preset name %q is not unique", p.Name)
		}
		seen[p.Name] = true
		if p.Usage == "" {
			t.Errorf("preset %q has no usage line", p.Name)
		}
		tinyPreset(t, p)
		for _, ext := range []string{".json", ".csv"} {
			if _, err := os.Stat(presetGolden(p, ext)); err != nil {
				t.Errorf("preset %q: %v", p.Name, err)
			}
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "presets", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		base := filepath.Base(f)
		name := base[:len(base)-len("_tiny"+filepath.Ext(base))]
		if !seen[name] {
			t.Errorf("golden %s belongs to no preset", f)
		}
	}
	for name := range tinyPresets {
		if !seen[name] {
			t.Errorf("tiny fixture %q belongs to no preset", name)
		}
	}
}

// TestCellsRepeatUnderTrace runs each cell twice in one process under
// WithTrace, over several iterations, and requires DeepEqual decision
// traces and metrics. Go randomises map iteration per range statement,
// so a CoreTime decision that follows map order diverges here rather
// than in a golden. The cells are a replicating CoreTime KV cell, a Fig.
// 4(b) cell whose monitor rebalances, moves, and unplaces, and a web cell
// with compaction under CoreTime.
func TestCellsRepeatUnderTrace(t *testing.T) {
	for _, tc := range []struct {
		sweep  func() (string, Sweep)
		labels []string
	}{
		{func() (string, Sweep) { return kvSweep(tinyKVConfig()) }, []string{"g55s40p5", "0.99", "coretime+repl"}},
		{func() (string, Sweep) { return fig4bSweep(tinyFig4bConfig()) }, []string{"24", "coretime"}},
		{func() (string, Sweep) { return webSweep(tinyWebConfig()) }, []string{"4000k", "0.5", "coretime"}},
	} {
		_, sw := tc.sweep()
		name := sw.Name + "/" + strings.Join(tc.labels, "/")
		t.Run(name, func(t *testing.T) {
			c, ok := cellAt(sw, tc.labels)
			if !ok {
				t.Fatalf("sweep %s has no cell %v", sw.Name, tc.labels)
			}
			c.Seed = cellSeed(7, c.Index, 0)
			c.Options = append(slices.Clone(c.Options), WithTrace(1<<15))
			want, wantEvents := tracedMeasure(t, c)
			if len(wantEvents) == 0 {
				t.Fatal("the cell made no traced decisions")
			}
			for i := 0; i < 3; i++ {
				got, events := tracedMeasure(t, c)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d metrics %v, first run %v", i+2, got, want)
				}
				if !reflect.DeepEqual(events, wantEvents) {
					t.Fatalf("run %d traced %d decisions that differ from the first run's %d", i+2, len(events), len(wantEvents))
				}
			}
		})
	}
}

// cellAt returns the cell of sw with the given axis labels.
func cellAt(sw Sweep, labels []string) (Cell, bool) {
	for _, c := range sw.cells() {
		if slices.Equal(c.Labels, labels) {
			return c, true
		}
	}
	return Cell{}, false
}

// tracedMeasure measures c on a fresh runtime and returns its metrics and
// trace.
func tracedMeasure(t *testing.T, c Cell) (Metrics, []TraceEvent) {
	t.Helper()
	c.arena = &cellArena{}
	m, err := c.measure()
	if err != nil {
		t.Fatal(err)
	}
	events, err := c.arena.rt.TraceEvents()
	if err != nil {
		t.Fatal(err)
	}
	return m, events
}
