// Engine speed round 2 benchmarks: the arena-reset sweep unit, the
// WebService steady state, and the million-request soak drive.
// Before/after numbers are recorded in BENCH_engine2.json.
//
// BenchmarkFig4Cell (bench_hotpath_test.go) times the cold unit — build a
// runtime and tree, run once. The sweep no longer pays that per repeat:
// repeats after the first roll the runtime back to its post-build image
// mark. BenchmarkFig4CellArena times exactly what one sweep worker now
// does per repeat, by driving b.N repeats of one cell through Sweep.Run.
package repro_test

import (
	"testing"

	"repro/o2"
)

// fig4BenchCell is the same cell BenchmarkFig4Cell measures, as sweep
// configuration: tiny8, 8 dirs × 512 entries, CoreTime.
func fig4BenchCell() o2.Sweep {
	p := o2.DefaultRunParams()
	p.Threads = 8
	p.Warmup = 400_000
	p.Measure = 800_000
	return o2.Sweep{
		Name: "bench",
		Base: o2.Cell{
			Machine:   o2.Tiny8,
			Scheduler: o2.CoreTime,
			Tree:      o2.DirSpec{Dirs: 8, EntriesPerDir: 512},
			Params:    p,
		},
		Seed:    7,
		Workers: 1,
		Runner:  o2.DirLookupCell,
	}
}

// BenchmarkFig4CellArena measures the steady-state sweep unit: one
// Figure-4 repeat on an arena-reused runtime (engine reset, image rolled
// back to the post-build mark, caches flushed) instead of a fresh build.
func BenchmarkFig4CellArena(b *testing.B) {
	s := fig4BenchCell()
	s.Repeats = b.N
	b.ReportAllocs()
	b.ResetTimer()
	res, err := s.Run()
	if err != nil {
		b.Fatal(err)
	}
	if res.Cells[0].Mean("kres_per_sec") <= 0 {
		b.Fatal("benchmark produced no resolutions")
	}
}

// BenchmarkWebCellArena measures the WebService steady state the same
// way: one open-loop run per repeat on an arena-reused runtime.
func BenchmarkWebCellArena(b *testing.B) {
	s := o2.Sweep{
		Name: "bench-web",
		Base: o2.Cell{
			Machine:   o2.Tiny8,
			Scheduler: o2.CoreTime,
			Web:       o2.WebSpec{DocRoots: 24, FilesPerRoot: 128},
			Service:   o2.ServiceLoad{Requests: 800, RPS: 1_000_000, Skew: 0.99},
		},
		Seed:    7,
		Workers: 1,
		Runner:  o2.ServiceCell,
	}
	s.Repeats = b.N
	b.ReportAllocs()
	b.ResetTimer()
	res, err := s.Run()
	if err != nil {
		b.Fatal(err)
	}
	if res.Cells[0].Mean("achieved_krps") <= 0 {
		b.Fatal("benchmark served nothing")
	}
}

// soakDrive is the shared body of the SoakDrive benchmarks: the
// direct-handoff drive per request — the unit cost behind `o2bench
// soak`, where a million requests flow through one chained arrival event
// and a parked-worker wait list. Extra options select the telemetry
// variants.
func soakDrive(b *testing.B, opts ...o2.Option) {
	rt := o2.MustNew(append([]o2.Option{o2.WithTopology(o2.Tiny8), o2.WithSeed(7)}, opts...)...)
	svc, err := rt.NewWebService(o2.WebSpec{DocRoots: 24, FilesPerRoot: 128})
	if err != nil {
		b.Fatal(err)
	}
	load := o2.ServiceLoad{
		Requests:      b.N,
		RPS:           1_000_000,
		Skew:          0.99,
		Seed:          7,
		DirectHandoff: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := svc.Run(load)
	if err != nil {
		b.Fatal(err)
	}
	if res.Completed == 0 {
		b.Fatal("benchmark served nothing")
	}
}

// BenchmarkSoakDrive is the telemetry-off baseline: 0 allocs/request
// (pinned by TestSoakDriveAllocFree and BENCH_engine2.json).
func BenchmarkSoakDrive(b *testing.B) {
	soakDrive(b)
}

// BenchmarkSoakDriveTelemetry is the same drive with the telemetry
// sampler probing every 20k cycles: the enabled overhead recorded in
// BENCH_engine2.json. The probe path is allocation-free (o2lint
// hotalloc-enforced), so the delta is pure sampling CPU.
func BenchmarkSoakDriveTelemetry(b *testing.B) {
	soakDrive(b, o2.WithTelemetry(20_000))
}

// TestSoakDriveAllocFree pins the acceptance criterion that telemetry —
// off or on — adds 0 allocs/request on the soak drive. Per-run setup
// (the arrival schedule, worker spawns, histogram warm-up) allocates a
// request-count-independent amount, so the test drives 5k and 80k
// requests on one warmed service and asserts the 16× longer drive
// allocates at most a handful more: one allocation per request would add
// 75k.
func TestSoakDriveAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting needs the full drive")
	}
	// The per-run cap is the setup cost, derived from the spawn count: a
	// Tiny8 drive spawns one worker per core and no compactor, and each
	// spawn allocates ~22 objects (the o2, exec and sim thread records,
	// their body closures, and ~9 for the proc's iter.Pull coroutine), on
	// top of ~12 fixed per run (schedule slices, queue ring, svcState,
	// arrival closure). Measured: 190 at both sizes.
	const (
		spawns       = 8
		perSpawn     = 24
		perRunFixed  = 16
		perRunBudget = perRunFixed + spawns*perSpawn
		maxGrowth    = 4 // allocs an 80k drive may add over a 5k drive
	)
	for _, tc := range []struct {
		name string
		opts []o2.Option
	}{
		{"telemetry-off", nil},
		{"telemetry-on", []o2.Option{o2.WithTelemetry(20_000)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := o2.MustNew(append([]o2.Option{o2.WithTopology(o2.Tiny8), o2.WithSeed(7)}, tc.opts...)...)
			svc, err := rt.NewWebService(o2.WebSpec{DocRoots: 24, FilesPerRoot: 128})
			if err != nil {
				t.Fatal(err)
			}
			drive := func(requests int) float64 {
				load := o2.ServiceLoad{
					Requests: requests, RPS: 1_000_000, Skew: 0.99, Seed: 7,
					DirectHandoff: true,
				}
				// Warm once at this size: scratch tables, pools, and
				// recorder capacity reach their steady state on the first
				// run.
				if _, err := svc.Run(load); err != nil {
					t.Fatal(err)
				}
				return testing.AllocsPerRun(1, func() {
					if _, err := svc.Run(load); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := drive(5_000), drive(80_000)
			if large-small > maxGrowth {
				t.Errorf("%s: %v allocs at 80k requests vs %v at 5k: the per-request path allocates",
					tc.name, large, small)
			}
			if large > perRunBudget {
				t.Errorf("%s: %v allocs per drive exceeds the %d-spawn setup budget %d",
					tc.name, large, spawns, perRunBudget)
			}
		})
	}
}
