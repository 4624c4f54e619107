package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Command  []string
	Paths    []string
	EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricsMatchBenchmarkFile pins the metrics the program emits to
// the ones BENCHMARK.json declares, name for name and unit for unit.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, tc := range []struct {
		kind     string
		declared []struct{ Name, Unit, Better string }
		emitted  []metricDef
	}{
		{"end_to_end", f.EndToEnd, endToEnd},
		{"per_layer", f.PerLayer, perLayer},
	} {
		var declared, emitted []string
		for _, m := range tc.declared {
			declared = append(declared, m.Name+" "+m.Unit)
		}
		for _, m := range tc.emitted {
			emitted = append(emitted, m.name+" "+m.unit)
			if !metricName.MatchString(m.name) {
				t.Errorf("%s metric %q does not match %s", tc.kind, m.name, metricName)
			}
		}
		if strings.Join(declared, ", ") != strings.Join(emitted, ", ") {
			t.Errorf("%s: BENCHMARK.json declares\n  %s\nthe program emits\n  %s",
				tc.kind, strings.Join(declared, ", "), strings.Join(emitted, ", "))
		}
	}
}

// TestSmoke runs every workload at its reduced size, untraced and traced,
// through the real child processes, and checks the result lines.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	var all []string
	for _, w := range workloads {
		all = append(all, w.name)
	}
	for _, trace := range []bool{false, true} {
		dir := t.TempDir()
		var out bytes.Buffer
		opt := options{workloads: all, seed: 1, trace: trace, traceDir: dir, smoke: true}
		if err := measureAll(opt, &out); err != nil {
			t.Fatal(err)
		}
		want := f.EndToEnd
		if trace {
			want = f.PerLayer
		}
		var results []jsonResult
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "{") {
				var r jsonResult
				if err := json.Unmarshal([]byte(line), &r); err != nil {
					t.Fatalf("result line %q: %v", line, err)
				}
				results = append(results, r)
			}
		}
		if len(results) != len(all) {
			t.Fatalf("trace=%t: %d result lines for %d workloads:\n%s", trace, len(results), len(all), out.String())
		}
		for i, r := range results {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s", all[i], trace, r.Correct, r.Attempted, r.Failed, out.String())
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", all[i], trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", all[i], trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: metric %s has unit %q, want %q", all[i], trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%t: metric %s = %v", all[i], trace, m.Name, got.Value)
				}
			}
		}
		if trace {
			checkTraceDir(t, dir, all)
		}
	}
}

func checkTraceDir(t *testing.T, dir string, workloads []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []span }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("spans.json: %v", err)
	}
	phases := map[string]int{}
	for _, s := range doc.TraceEvents {
		phases[s.Name]++
	}
	for _, name := range append([]string{"setup", "drive", "check"}, workloads...) {
		if phases[name] == 0 {
			t.Errorf("spans.json has no %q span", name)
		}
	}
	for _, w := range workloads {
		profiles, _ := filepath.Glob(filepath.Join(dir, w, "*.pprof"))
		if len(profiles) == 0 {
			t.Errorf("no drive profiles for %s", w)
		}
	}
}

// TestSummarizeCountsFailedCells feeds the checks cells whose digests
// disagree in each of the ways a failure can show.
func TestSummarizeCountsFailedCells(t *testing.T) {
	cell := func(name, digest, errMsg string) cellRun {
		return cellRun{Name: name, Digest: digest, Err: errMsg, SetupS: 0.1, DriveS: 1,
			Metrics: map[string]float64{"machine.loads": 1e6}}
	}
	good := pass{Cells: []cellRun{cell("a", "d1", ""), cell("b", "d2", "")}}
	for _, tc := range []struct {
		name   string
		passes []pass
		want   map[string]string
		failed int
	}{
		{"all agree", []pass{good, good}, nil, 0},
		{"committed match", []pass{good}, map[string]string{"a": "d1", "b": "d2"}, 0},
		{"committed mismatch", []pass{good}, map[string]string{"a": "d1", "b": "old"}, 1},
		{"second pass differs", []pass{good, {Cells: []cellRun{cell("a", "d1", ""), cell("b", "xx", "")}}}, nil, 1},
		{"traced differs", []pass{good, {Traced: true, Cells: []cellRun{cell("a", "xx", ""), cell("b", "d2", "")}}}, nil, 1},
		{"invariant broken", []pass{{Cells: []cellRun{cell("a", "d1", "3 requests in flight"), cell("b", "d2", "")}}}, nil, 1},
	} {
		r := summarize("w", childResult{Passes: tc.passes}, 1<<20, tc.want, nil)
		if r.failed != tc.failed || r.correct != (tc.failed == 0) {
			t.Errorf("%s: failed=%d correct=%t, want failed=%d (%v)", tc.name, r.failed, r.correct, tc.failed, r.problems)
		}
	}
}

// TestImportsStayOnTheFacade keeps the benchmark measuring the system
// through its public surface: no package under bench/ may import any of
// the repository's packages but repro/o2 and the benchmark's own.
func TestImportsStayOnTheFacade(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if (p == "repro" || strings.HasPrefix(p, "repro/")) && p != "repro/o2" && !strings.HasPrefix(p, "repro/bench/") {
				t.Errorf("%s imports %s; the benchmark may import only repro/o2 and repro/bench/...", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
