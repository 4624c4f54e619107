package o2

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// tinySweep is a fast Fig4-shaped sweep used by the engine tests: a 2×2
// grid on the Tiny8 machine with short windows.
func tinySweep() Sweep {
	p := DefaultRunParams()
	p.Threads = 4
	p.Warmup = 200_000
	p.Measure = 400_000
	return Sweep{
		Name: "tiny",
		Base: Cell{Machine: Tiny8, Scenario: DirLookupScenario{Params: p}},
		Axes: []Axis{
			dirCountAxis(128, 2, 6),
			schedulerAxis(Baseline, CoreTime),
		},
		Repeats: 2,
		Seed:    7,
	}
}

// TestSweepDeterministicAcrossWorkerCounts is the core correctness
// property of the parallel engine: the same sweep with the same seed must
// produce byte-identical per-cell results at -workers=1 and -workers=8.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) (*SweepResult, error) {
		s := tinySweep()
		s.Workers = workers
		return s.Run()
	}
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("workers=1 and workers=8 results differ:\n%+v\nvs\n%+v", serial, parallel)
	}

	// Byte-identical JSON, the form the bench trajectory consumes.
	var a, b bytes.Buffer
	if err := serial.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("workers=1 and workers=8 JSON output differs byte for byte")
	}
}

func TestSweepGridExpansion(t *testing.T) {
	s := tinySweep()
	cells := s.cells()
	if len(cells) != 4 {
		t.Fatalf("2×2 grid expanded to %d cells", len(cells))
	}
	// Row-major, last axis fastest.
	wantLabels := [][]string{
		{"2", "thread-scheduler"},
		{"2", "coretime"},
		{"6", "thread-scheduler"},
		{"6", "coretime"},
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
		if !reflect.DeepEqual(c.Labels, wantLabels[i]) {
			t.Errorf("cell %d labels = %v, want %v", i, c.Labels, wantLabels[i])
		}
	}
	if a, b := cells[0].Scenario.(DirLookupScenario), cells[2].Scenario.(DirLookupScenario); a.Tree.Dirs != 2 || b.Tree.Dirs != 6 {
		t.Errorf("dir axis not applied: %+v / %+v", a.Tree, b.Tree)
	}
	if cells[0].Scheduler != Baseline || cells[1].Scheduler != CoreTime {
		t.Error("scheduler axis not applied")
	}
}

func TestSweepNoAxesRunsBaseCell(t *testing.T) {
	var got []Cell
	res, err := Sweep{
		Name: "point",
		Base: Cell{Machine: small4},
		Runner: func(c Cell) (Metrics, error) {
			got = append(got, c)
			return Metrics{"v": 1}, nil
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(res.Cells) != 1 {
		t.Fatalf("axis-less sweep ran %d cells, reported %d", len(got), len(res.Cells))
	}
	if got[0].Machine.Name() != small4.Name() {
		t.Errorf("base cell not passed through: %+v", got[0])
	}
}

func TestSweepPerCellSeeds(t *testing.T) {
	seen := map[uint64]int{}
	res, err := Sweep{
		Name:    "seeds",
		Axes:    []Axis{schedulerAxis(Baseline, CoreTime)},
		Repeats: 3,
		Seed:    42,
		Runner: func(c Cell) (Metrics, error) {
			if c.Seed != cellSeed(42, c.Index, c.Repeat) {
				return nil, fmt.Errorf("cell %d repeat %d got seed %d", c.Index, c.Repeat, c.Seed)
			}
			return Metrics{"seed": float64(c.Seed)}, nil
		},
		Workers: 1,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		for _, s := range c.Seeds {
			seen[s]++
		}
	}
	if len(seen) != 6 {
		t.Errorf("2 cells × 3 repeats produced %d distinct seeds, want 6", len(seen))
	}
}

func TestSweepAggregates(t *testing.T) {
	// A runner returning known values per repeat: check the summary math.
	res, err := Sweep{
		Name:    "agg",
		Repeats: 4,
		Runner: func(c Cell) (Metrics, error) {
			return Metrics{"v": float64(c.Repeat + 1)}, nil // 1,2,3,4
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	agg := res.Cells[0].Stats["v"]
	if agg.N != 4 || agg.Mean != 2.5 || agg.Min != 1 || agg.Max != 4 {
		t.Errorf("aggregate = %+v, want n=4 mean=2.5 min=1 max=4", agg)
	}
	// Sample stddev of 1..4 is sqrt(5/3) ≈ 1.29099.
	if agg.Stddev < 1.29 || agg.Stddev > 1.30 {
		t.Errorf("stddev = %v, want ≈1.291", agg.Stddev)
	}
}

func TestSweepErrorIsFirstInGridOrder(t *testing.T) {
	// Whichever worker hits its error first, the reported failure must be
	// the first failing unit in grid order.
	boom := errors.New("boom")
	s := Sweep{
		Name: "errs",
		Axes: []Axis{{Name: "i", Values: []AxisValue{
			{Label: "a"}, {Label: "b"}, {Label: "c"}, {Label: "d"},
		}}},
		Runner: func(c Cell) (Metrics, error) {
			if c.Index >= 1 {
				return nil, fmt.Errorf("cell %d: %w", c.Index, boom)
			}
			return Metrics{}, nil
		},
	}
	for _, workers := range []int{1, 8} {
		s.Workers = workers
		_, err := s.Run()
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		want := fmt.Sprintf("cell 1 [b] repeat 0 seed %d:", cellSeed(0, 1, 0))
		if !strings.Contains(err.Error(), want) {
			t.Errorf("workers=%d: err %q does not name the first failing cell as %q", workers, err, want)
		}
	}
}

func TestSweepWithoutRunnerFails(t *testing.T) {
	if _, err := (Sweep{Name: "norunner"}).Run(); err == nil {
		t.Fatal("sweep with neither a Runner nor a Scenario did not error")
	}
	s := Sweep{Name: "emptyaxis", Axes: []Axis{{Name: "x"}},
		Runner: func(Cell) (Metrics, error) { return nil, nil }}
	if _, err := s.Run(); err == nil {
		t.Fatal("sweep with an empty axis did not error")
	}
}

// TestSweepAxisScenarioMismatchFails: an axis applied to a scenario it
// does not edit fails the sweep, naming the axis and the scenario type,
// instead of measuring unchanged cells under the axis's labels.
func TestSweepAxisScenarioMismatchFails(t *testing.T) {
	_, web := webSweep(quickWebConfig())
	web.Axes = append(web.Axes, mixAxis(KVMix{Gets: 1}, KVMix{Scans: 1}))
	bare := Sweep{Name: "bare", Axes: []Axis{dirCountAxis(64, 2)}}
	for _, tc := range []struct {
		s    Sweep
		want string
	}{
		{web, `axis "mix" does not apply to scenario o2.WebScenario`},
		{bare, `axis "dirs" does not apply to scenario <nil>`},
	} {
		_, err := tc.s.Run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("sweep %q: err = %v, want it to contain %q", tc.s.Name, err, tc.want)
		}
	}
}

// TestSweepPanicBecomesCellError: a simulated thread's panic surfaces
// from Run on the sweep worker's goroutine. The engine turns it into the
// cell's error, naming the cell, repeat, and seed that reproduce it, and
// stops the threads the panic stranded on the arena's runtime, so no
// coroutine outlives the sweep.
func TestSweepPanicBecomesCellError(t *testing.T) {
	before := runtime.NumGoroutine()
	s := Sweep{
		Name:    "panic",
		Base:    Cell{Machine: Tiny8},
		Axes:    []Axis{schedulerAxis(Baseline, CoreTime)},
		Repeats: 2,
		Workers: 2,
		Runner: func(c Cell) (Metrics, error) {
			rt, err := scenarioForCell(c, func(rt *Runtime) (*Runtime, error) {
				return rt, rt.ensure(0)
			})
			if err != nil {
				return nil, err
			}
			for i := 0; i < 4; i++ {
				i := i
				rt.Go(fmt.Sprintf("w%d", i), i, func(th *Thread) {
					for k := 0; k < 50; k++ {
						if i == 0 && k == 10 && c.Index == 1 && c.Repeat == 1 {
							panic("boom")
						}
						th.Compute(100)
					}
				})
			}
			return Metrics{"now": float64(rt.Run())}, nil
		},
	}
	_, err := s.Run()
	want := fmt.Sprintf(`o2: sweep "panic" cell 1 [coretime] repeat 1 seed %d: panic: boom`, cellSeed(0, 1, 1))
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the sweep, %d before: the panicked run's threads leaked", n, before)
	}
}

// honorsCellScheduler pins the precedence rule every scenario shares
// through scenarioForCell: Cell.Scheduler is authoritative, applied after
// Options, and policyAxis keeps it in sync with the policy it applies.
func honorsCellScheduler(t *testing.T, sc Scenario) {
	t.Helper()
	// A CoreTime option under a Baseline cell scheduler: the cell wins.
	bare := Cell{Machine: Tiny8, Scenario: sc, Scheduler: Baseline, Options: []Option{WithScheduler(CoreTime)}}
	m, err := bare.measure()
	if err != nil {
		t.Fatal(err)
	}
	if m["migrations"] != 0 {
		t.Errorf("%T: Scheduler=Baseline cell migrated %v times; Cell.Scheduler is not authoritative", sc, m["migrations"])
	}

	// A policyAxis value applied over a conflicting base scheduler must
	// select the policy's scheduler, not the base's.
	viaAxis := Cell{Machine: Tiny8, Scenario: sc, Scheduler: Baseline}
	policyAxis(KVCoreTime).Values[0].Apply(&viaAxis)
	if viaAxis.Scheduler != CoreTime {
		t.Fatalf("policyAxis left Cell.Scheduler = %v, want CoreTime", viaAxis.Scheduler)
	}
	if m, err = viaAxis.measure(); err != nil {
		t.Fatal(err)
	}
	if m["migrations"] == 0 {
		t.Errorf("%T: policyAxis(KVCoreTime) cell never migrated; the policy is not in effect", sc)
	}
}

func TestDirLookupHonorsCellScheduler(t *testing.T) {
	honorsCellScheduler(t, DirLookupScenario{
		Tree:   DirSpec{Dirs: 16, EntriesPerDir: 256},
		Params: RunParams{Threads: 8, Warmup: 200_000, Measure: 300_000},
	})
}

func TestKVCellHonorsCellScheduler(t *testing.T) {
	honorsCellScheduler(t, KVScenario{
		Spec: KVSpec{Shards: 4, SlotsPerShard: 16, SlotBytes: 64, Keys: 64},
		Load: KVLoad{Clients: 2, OpsPerClient: 20},
	})
}

func TestServiceCellHonorsCellScheduler(t *testing.T) {
	honorsCellScheduler(t, WebScenario{
		Spec: WebSpec{DocRoots: 6, FilesPerRoot: 64},
		Load: ServiceLoad{Requests: 120, RPS: 400_000},
	})
}

func TestSweepOptionsDoNotAliasAcrossCells(t *testing.T) {
	// Axis Apply appends to cell.Options; cells must not stomp each
	// other's appended options through a shared backing array.
	base := []Option{WithMissThreshold(8)}
	var labels []string
	_, err := Sweep{
		Name: "alias",
		Base: Cell{Options: base},
		Axes: []Axis{{Name: "variant", Values: []AxisValue{
			{Label: "x", Apply: func(c *Cell) { c.Options = append(c.Options, withClustering(true)) }},
			{Label: "y", Apply: func(c *Cell) { c.Options = append(c.Options, withReplication(true)) }},
		}}},
		Workers: 1,
		Runner: func(c Cell) (Metrics, error) {
			if len(c.Options) != 2 {
				return nil, fmt.Errorf("cell %v has %d options, want 2", c.Labels, len(c.Options))
			}
			labels = append(labels, c.Labels[0])
			return Metrics{}, nil
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 1 {
		t.Errorf("base options mutated: len=%d", len(base))
	}
	if !reflect.DeepEqual(labels, []string{"x", "y"}) {
		t.Errorf("cells ran %v", labels)
	}
}

func TestCellSeedDeterministicAndDistinct(t *testing.T) {
	if cellSeed(1, 2, 3) != cellSeed(1, 2, 3) {
		t.Error("cellSeed not deterministic")
	}
	seen := map[uint64]bool{}
	for cell := 0; cell < 50; cell++ {
		for rep := 0; rep < 4; rep++ {
			seen[cellSeed(99, cell, rep)] = true
		}
	}
	if len(seen) != 200 {
		t.Errorf("200 (cell, repeat) pairs produced %d distinct seeds", len(seen))
	}
	if DeriveSeed(5, 1) == DeriveSeed(5, 2) || DeriveSeed(5) == DeriveSeed(6) {
		t.Error("DeriveSeed collides on adjacent inputs")
	}
}

func TestSweepResultCellLookup(t *testing.T) {
	s := tinySweep()
	s.Repeats = 1
	s.Workers = 2
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cell("6", "coretime")
	if c == nil {
		t.Fatal("Cell lookup by labels failed")
	}
	if c.Mean("kres_per_sec") <= 0 {
		t.Errorf("degenerate cell result: %+v", c)
	}
	if res.Cell("999", "coretime") != nil {
		t.Error("lookup of absent cell returned non-nil")
	}
}

// TestFig4SweepMatchesExperiment pins the no-drift property: a sweep cell
// and a hand-rolled Experiment.Run with the same seed produce identical
// results, because DirLookupScenario resolves its parameters and builds
// its runtime exactly as Experiment.Run does.
func TestFig4SweepMatchesExperiment(t *testing.T) {
	p := DefaultRunParams()
	p.Threads = 4
	p.Warmup = 200_000
	p.Measure = 400_000

	s := Sweep{
		Name:    "pin",
		Base:    Cell{Machine: Tiny8, Scenario: DirLookupScenario{Params: p}},
		Axes:    []Axis{dirCountAxis(128, 4), schedulerAxis(CoreTime)},
		Seed:    11,
		Workers: 2,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Cells[0]

	exp := Experiment{Machine: Tiny8, Tree: DirSpec{Dirs: 4, EntriesPerDir: 128}, Params: p}
	exp.Params.Seed = cell.Seeds[0]
	direct, err := exp.Run(WithScheduler(CoreTime), WithSeed(cell.Seeds[0]))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cell.Mean("kres_per_sec"), direct.KResPerSec; got != want {
		t.Errorf("sweep cell kres %v != direct Experiment.Run %v", got, want)
	}
	if got, want := cell.Mean("migrations"), float64(direct.Migrations); got != want {
		t.Errorf("sweep cell migrations %v != direct %v", got, want)
	}
}
