package o2

import (
	"reflect"
	"testing"
)

// checkRepeatsMatchFresh runs s and pins the arena's behavior-transparency
// contract: inside a sweep, repeats after the first reuse the cell's
// runtime through an arena reset, and every repeat must produce exactly
// the metrics a fresh, arena-free run at the same seed produces.
func checkRepeatsMatchFresh(t *testing.T, s Sweep) {
	t.Helper()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for ci, cell := range res.Cells {
		for r := 0; r < s.Repeats; r++ {
			// A standalone cell has no arena, so this run builds a fresh
			// runtime — the old per-repeat code path.
			fresh := s.cells()[ci]
			fresh.Repeat = r
			fresh.Seed = cellSeed(s.Seed, fresh.Index, r)
			m, err := s.runner()(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cell.Runs[r], m) {
				t.Errorf("cell %v repeat %d: arena run %v != fresh run %v",
					cell.Labels, r, cell.Runs[r], m)
			}
		}
	}
}

func TestArenaRepeatsMatchFreshRuns(t *testing.T) {
	p := DefaultRunParams()
	p.Threads = 4
	p.Warmup = 200_000
	p.Measure = 400_000
	checkRepeatsMatchFresh(t, Sweep{
		Name:    "arena",
		Base:    Cell{Machine: Tiny8, Scenario: DirLookupScenario{Params: p}},
		Axes:    []Axis{dirCountAxis(128, 4), schedulerAxis(Baseline, CoreTime)},
		Repeats: 3,
		Seed:    23,
		Workers: 1,
	})
}

// TestArenaServiceRepeatsMatchFreshRuns is the same transparency pin for
// the open-loop web scenario, whose runs spawn and drain a different
// thread population (workers plus a compactor) each repeat.
func TestArenaServiceRepeatsMatchFreshRuns(t *testing.T) {
	load := defaultServiceLoad()
	load.Requests = 400
	load.RPS = 1_000_000
	checkRepeatsMatchFresh(t, Sweep{
		Name:    "arena-web",
		Base:    Cell{Machine: Tiny8, Scenario: WebScenario{Spec: WebSpec{DocRoots: 8, FilesPerRoot: 64}, Load: load}},
		Axes:    []Axis{compactionAxis(0, 0.5)},
		Repeats: 3,
		Seed:    31,
		Workers: 1,
	})
}

// TestArenaTruncatedServiceRepeatsMatchFreshRuns extends the transparency
// pin to runs a TimeLimit cuts short. WebService closes the engine once
// the truncated result is built, so the runtime is drained and the next
// repeat reuses it — after threads were stopped holding cores, queue
// slots, directory locks and open CoreTime operations — and every repeat
// must still equal a fresh run.
func TestArenaTruncatedServiceRepeatsMatchFreshRuns(t *testing.T) {
	load := defaultServiceLoad()
	load.Requests = 400
	load.RPS = 1_000_000
	load.TimeLimit = 150_000 // well before the schedule drains
	s := Sweep{
		Name:    "arena-web-truncated",
		Base:    Cell{Machine: Tiny8, Scenario: WebScenario{Spec: WebSpec{DocRoots: 8, FilesPerRoot: 64}, Load: load}},
		Axes:    []Axis{compactionAxis(0, 0.5), schedulerAxis(Baseline, CoreTime)},
		Repeats: 2,
		Seed:    37,
		Workers: 1,
	}
	// The first repeat must really be truncated and really leave a
	// reusable arena behind, or the sweep below would rebuild instead.
	for _, c := range s.cells() {
		c.Seed = cellSeed(s.Seed, c.Index, 0)
		c.arena = &cellArena{}
		if _, err := c.measure(); err != nil {
			t.Fatal(err)
		}
		if st := c.arena.scenario.(*WebService).state; st.arrived == st.served+st.dropped {
			t.Fatalf("cell %d: the time limit did not bite", c.Index)
		}
		if !c.arena.reusable() {
			t.Fatalf("cell %d: truncated runtime is not arena-reusable", c.Index)
		}
	}
	checkRepeatsMatchFresh(t, s)
}

// TestArenaObjectRepeatsMatchFreshRuns extends the transparency pin to
// the raw-object scenario with clustering hints. An arena reset forgets
// the hints with the rest of CoreTime's object state, so a scenario that
// gave them only when it built the runtime would measure every repeat
// after the first unclustered.
func TestArenaObjectRepeatsMatchFreshRuns(t *testing.T) {
	checkRepeatsMatchFresh(t, Sweep{
		Name: "arena-objects",
		Base: Cell{Machine: Tiny8, Scenario: objectScenario{objects: 8, size: 8 << 10, threads: 4, group: 2, perByte: 0.05}},
		Axes: []Axis{{Name: "clustering", Values: []AxisValue{
			optionValue("off", withClustering(false)), optionValue("on", withClustering(true)),
		}}},
		Repeats: 3,
		Seed:    41,
		Workers: 1,
	})
}

// TestArenaPathRepeatsMatchFreshRuns is the same pin for the path
// scenario, whose clusterByTop hints an arena reset forgets too.
func TestArenaPathRepeatsMatchFreshRuns(t *testing.T) {
	checkRepeatsMatchFresh(t, Sweep{
		Name: "arena-paths",
		Base: Cell{Machine: Tiny8, Options: []Option{WithMissThreshold(4)}, Scenario: pathScenario{}},
		Axes: []Axis{{Name: "clustering", Values: []AxisValue{
			optionValue("off", withClustering(false)), optionValue("on", withClustering(true)),
		}}},
		Repeats: 3,
		Seed:    43,
		Workers: 1,
	})
}
