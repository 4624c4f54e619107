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
			fresh.Seed = CellSeed(s.Seed, fresh.Index, r)
			fresh.Params.Seed = fresh.Seed
			m, err := s.Runner(fresh)
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
		Base:    Cell{Machine: Tiny8, Params: p},
		Axes:    []Axis{DirCountAxis(128, 4), SchedulerAxis(Baseline, CoreTime)},
		Repeats: 3,
		Seed:    23,
		Runner:  DirLookupCell,
		Workers: 1,
	})
}

// TestArenaServiceRepeatsMatchFreshRuns is the same transparency pin for
// the open-loop web scenario, whose runs spawn and drain a different
// thread population (workers plus a compactor) each repeat.
func TestArenaServiceRepeatsMatchFreshRuns(t *testing.T) {
	load := DefaultServiceLoad()
	load.Requests = 400
	load.RPS = 1_000_000
	checkRepeatsMatchFresh(t, Sweep{
		Name:    "arena-web",
		Base:    Cell{Machine: Tiny8, Web: WebSpec{DocRoots: 8, FilesPerRoot: 64}, Service: load},
		Axes:    []Axis{CompactionAxis(0, 0.5)},
		Repeats: 3,
		Seed:    31,
		Runner:  ServiceCell,
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
	load := DefaultServiceLoad()
	load.Requests = 400
	load.RPS = 1_000_000
	load.TimeLimit = 150_000 // well before the schedule drains
	s := Sweep{
		Name:    "arena-web-truncated",
		Base:    Cell{Machine: Tiny8, Web: WebSpec{DocRoots: 8, FilesPerRoot: 64}, Service: load},
		Axes:    []Axis{CompactionAxis(0, 0.5), SchedulerAxis(Baseline, CoreTime)},
		Repeats: 2,
		Seed:    37,
		Runner:  ServiceCell,
		Workers: 1,
	}
	// The first repeat must really be truncated and really leave a
	// reusable arena behind, or the sweep below would rebuild instead.
	for _, c := range s.cells() {
		c.Seed = CellSeed(s.Seed, c.Index, 0)
		c.arena = &cellArena{}
		if _, err := ServiceCell(c); err != nil {
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
