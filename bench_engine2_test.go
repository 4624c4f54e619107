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
	"runtime/debug"
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
			Scenario:  o2.DirLookupScenario{Tree: o2.DirSpec{Dirs: 8, EntriesPerDir: 512}, Params: p},
		},
		Seed:    7,
		Workers: 1,
	}
}

// BenchmarkFig4CellArena measures the steady-state sweep unit: one
// Figure-4 repeat on an arena-reused runtime (engine reset, image rolled
// back to the post-build mark, caches flushed) instead of a fresh build.
// It reports host ns per dispatched event and per line access.
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
	dir := s.Base.Scenario.(o2.DirLookupScenario)
	events, accesses := replayCounts(b, s, res, "kres_per_sec", func(rt *o2.Runtime, seed uint64) (float64, error) {
		tree, err := rt.NewDirTree(dir.Tree)
		if err != nil {
			return 0, err
		}
		p := dir.Params
		p.Seed = seed
		return tree.Run(p).KResPerSec, nil
	})
	reportRates(b, events, accesses, 0)
}

// BenchmarkWebCellArena measures the WebService steady state the same
// way: one open-loop run per repeat on an arena-reused runtime. It
// reports host ns per dispatched event, per line access and per offered
// request.
func BenchmarkWebCellArena(b *testing.B) {
	s := o2.Sweep{
		Name: "bench-web",
		Base: o2.Cell{
			Machine:   o2.Tiny8,
			Scheduler: o2.CoreTime,
			Scenario: o2.WebScenario{
				Spec: o2.WebSpec{DocRoots: 24, FilesPerRoot: 128},
				Load: o2.ServiceLoad{Requests: 800, RPS: 1_000_000, Skew: 0.99},
			},
		},
		Seed:    7,
		Workers: 1,
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
	web := s.Base.Scenario.(o2.WebScenario)
	events, accesses := replayCounts(b, s, res, "achieved_krps", func(rt *o2.Runtime, seed uint64) (float64, error) {
		svc, err := rt.NewWebService(web.Spec)
		if err != nil {
			return 0, err
		}
		load := web.Load
		load.Seed = seed
		r, err := svc.Run(load)
		return r.AchievedKRPS, err
	})
	reportRates(b, events, accesses, b.N*web.Load.Requests)
}

// replayCounts returns the events dispatched and the line accesses (loads
// plus stores) of every repeat of s's one cell, which the timer did not
// see. A repeat is a pure function of its seed, arena or not, so each is
// replayed on a fresh runtime by run, off the clock; run returns the
// repeat's value of metric, which must equal the timed repeat's.
func replayCounts(b *testing.B, s o2.Sweep, res *o2.SweepResult, metric string,
	run func(rt *o2.Runtime, seed uint64) (float64, error)) (events, accesses float64) {
	b.StopTimer()
	c := res.Cells[0]
	for i, seed := range c.Seeds {
		rt, err := o2.New(o2.WithTopology(s.Base.Machine), o2.WithSeed(seed), o2.WithScheduler(s.Base.Scheduler))
		if err != nil {
			b.Fatal(err)
		}
		got, err := run(rt, seed)
		if err != nil {
			b.Fatal(err)
		}
		if want := c.Runs[i][metric]; got != want {
			b.Fatalf("repeat %d replayed %s = %v, timed run measured %v", i, metric, got, want)
		}
		e, a := runtimeCounts(rt)
		events += e
		accesses += a
	}
	return events, accesses
}

// runtimeCounts reads rt's events dispatched and line accesses so far.
func runtimeCounts(rt *o2.Runtime) (events, accesses float64) {
	for _, m := range rt.Metrics() {
		switch m.Name {
		case "engine.events_dispatched":
			events = m.Value
		case "machine.loads", "machine.stores":
			accesses += m.Value
		}
	}
	return events, accesses
}

// reportRates reports the timed host ns per dispatched event, per line
// access, and, when requests > 0, per request.
func reportRates(b *testing.B, events, accesses float64, requests int) {
	if events == 0 || accesses == 0 {
		b.Fatal("benchmark dispatched no events or made no accesses")
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/events, "ns/event")
	b.ReportMetric(ns/accesses, "ns/access")
	if requests > 0 {
		b.ReportMetric(ns/float64(requests), "ns/request")
	}
}

// soakDrive is the shared body of the SoakDrive benchmarks: the
// direct-handoff drive per request — the unit cost behind `o2bench
// soak`, where a million requests flow through one chained arrival event
// and a parked-worker wait list. Extra options select the telemetry
// variants. It reports host ns per dispatched event, per line access and
// per request.
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
	events0, accesses0 := runtimeCounts(rt)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := svc.Run(load)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if res.Completed == 0 {
		b.Fatal("benchmark served nothing")
	}
	events, accesses := runtimeCounts(rt)
	reportRates(b, events-events0, accesses-accesses0, b.N)
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
				// Hold the collector off while counting: a cycle inside
				// the drive makes the runtime allocate for itself (new
				// goroutine records and OS threads after the world
				// restarts), which the count would charge to the drive.
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
