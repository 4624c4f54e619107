package workload

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// buildAllocs returns the heap allocations BuildEnvOn makes for spec on a
// fresh machine, less the volume store's one allocation per page written
// (a page holds 64 KB, so those follow the bytes of directory data, not
// the entry count). The collector is held off during each build, which
// starts from a fresh collection: a cycle in mid-build would empty fmt's
// buffer pool and add allocations. It takes the least of three builds, so
// a stray allocation by the test runner cannot inflate it.
func buildAllocs(t *testing.T, spec DirSpec) int64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := int64(-1)
	for range 3 {
		runtime.GC()
		m, err := machine.New(topology.Small(), spec.ImageBytes())
		if err != nil {
			t.Fatal(err)
		}
		sys := exec.NewSystem(sim.NewEngine(), m, exec.DefaultOptions())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		env, err := BuildEnvOn(sys, spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(after.Mallocs-before.Mallocs) - int64(env.FS.PagesWritten())
		if best < 0 || n < best {
			best = n
		}
	}
	return best
}

// TestBuildAllocsPerDirIndependentOfEntries pins the build's allocation
// contract: what one more directory costs in host allocations does not
// depend on how many entries it holds. The name table is built and
// encoded once per tree and shared by every directory, so the 48
// directories between Dirs 16 and 64 add the same allocations at 100 and
// at 1,000 entries each.
func TestBuildAllocsPerDirIndependentOfEntries(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	extra := func(entries int) int64 {
		return buildAllocs(t, DirSpec{Dirs: 64, EntriesPerDir: entries}) -
			buildAllocs(t, DirSpec{Dirs: 16, EntriesPerDir: entries})
	}
	small, large := extra(100), extra(1000)
	if small != large {
		t.Fatalf("48 more directories cost %d allocations at 100 entries but %d at 1,000", small, large)
	}
	t.Logf("48 more directories cost %d allocations at either size", small)
}
