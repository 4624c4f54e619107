// Benchmarks that regenerate the paper's tables and figures through the
// testing.B interface, driving the public repro/o2 façade. Each benchmark
// mirrors one experiment from DESIGN.md; `go test -bench=. -benchmem`
// prints the measured series as custom metrics (kres/s — thousands of name
// resolutions per second of simulated time — and speedup ratios).
//
// These use reduced sweeps so the whole suite completes in minutes; the
// full-resolution tables come from `go run ./cmd/o2bench all`. The Fig. 4
// benchmarks live beside the presets, in o2/bench_pkg_test.go.
package repro_test

import (
	"strings"
	"testing"

	"repro/o2"
)

// BenchmarkFig2CacheContents regenerates Figure 2: cache duplication under
// thread scheduling versus O2 scheduling.
func BenchmarkFig2CacheContents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, ct, err := o2.Fig2(o2.DefaultFig2Config())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(base.Duplication, "dup_thread_sched")
		b.ReportMetric(ct.Duplication, "dup_o2_sched")
		b.ReportMetric(float64(base.DistinctOnChip), "onchip_thread_sched")
		b.ReportMetric(float64(ct.DistinctOnChip), "onchip_o2_sched")
	}
}

// BenchmarkLatencyTable regenerates the §5 memory latency table.
func BenchmarkLatencyTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := o2.LatencyTable()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Paper != 0 {
				b.ReportMetric(float64(r.Measured), "cyc_"+metricName(r.Name))
			}
		}
	}
}

// BenchmarkMigrationCost regenerates the §5 migration measurement
// (paper: 2000 cycles).
func BenchmarkMigrationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := o2.MigrationCost(128)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanCycles, "cycles/migration")
	}
}

// BenchmarkAblations runs every §6 ablation sweep, one sub-benchmark
// each, reporting each cell's throughput (kops_per_sec, or kres_per_sec
// for the directory and path scenarios) under its axis label.
func BenchmarkAblations(b *testing.B) {
	for _, a := range o2.Ablations() {
		b.Run(a.Name, func(b *testing.B) {
			_, sw := a.Build(false)
			sw.Seed = 1
			for i := 0; i < b.N; i++ {
				res, err := sw.Run()
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range res.Cells {
					for _, m := range []string{"kops_per_sec", "kres_per_sec"} {
						if _, ok := c.Stats[m]; ok {
							b.ReportMetric(c.Mean(m), m[:4]+"_"+strings.Join(c.Labels, "_"))
						}
					}
				}
			}
		})
	}
}

// BenchmarkDirLookupBaseline and BenchmarkDirLookupCoreTime are
// single-point microbenchmarks of the workload engine itself, useful for
// profiling the simulator.
func BenchmarkDirLookupBaseline(b *testing.B) {
	benchDirLookup(b, o2.Baseline)
}

// BenchmarkDirLookupCoreTime is the CoreTime counterpart of
// BenchmarkDirLookupBaseline.
func BenchmarkDirLookupCoreTime(b *testing.B) {
	benchDirLookup(b, o2.CoreTime)
}

func benchDirLookup(b *testing.B, scheduler o2.Scheduler) {
	exp := o2.Experiment{
		Machine: o2.Tiny8,
		Tree:    o2.DirSpec{Dirs: 8, EntriesPerDir: 512},
	}
	p := o2.DefaultRunParams()
	p.Threads = 8
	p.Warmup = 800_000
	p.Measure = 1_600_000
	exp.Params = p
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(o2.WithScheduler(scheduler))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.KResPerSec, "kres/s")
	}
}

func metricName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r >= 'A' && r <= 'Z':
			out = append(out, r)
		case r == ' ':
			out = append(out, '_')
		}
	}
	return string(out)
}
