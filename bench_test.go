// Benchmarks that regenerate the paper's tables and figures through the
// testing.B interface, driving the public repro/o2 façade. Each benchmark
// mirrors one experiment from DESIGN.md; `go test -bench=. -benchmem`
// prints the measured series as custom metrics (kres/s — thousands of name
// resolutions per second of simulated time — and speedup ratios).
//
// These use reduced sweeps so the whole suite completes in minutes; the
// full-resolution tables come from `go run ./cmd/o2bench all`.
package repro_test

import (
	"strings"
	"testing"

	"repro/o2"
)

// benchFig4Config is a three-point sweep through the regions that define
// Figure 4's shape: lock-bound left edge, CoreTime's sweet spot, and the
// over-capacity right edge.
func benchFig4Config() o2.Fig4Config {
	cfg := o2.QuickFig4Config()
	cfg.DirCounts = []int{8, 224, 640}
	return cfg
}

// BenchmarkFig4aUniform regenerates Figure 4(a): file system throughput
// under uniform directory popularity, with and without CoreTime.
func BenchmarkFig4aUniform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := o2.Fig4a(benchFig4Config())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.BaseKRes, "kres_base_"+kbLabel(r.DataKB))
			b.ReportMetric(r.CTKRes, "kres_ct_"+kbLabel(r.DataKB))
		}
		// The paper's headline: 2–3× in the mid range.
		b.ReportMetric(rows[1].Speedup, "speedup_mid")
	}
}

// BenchmarkFig4bOscillate regenerates Figure 4(b): oscillating directory
// popularity, exercising the monitor's rebalancing.
func BenchmarkFig4bOscillate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchFig4Config()
		cfg.DirCounts = []int{224}
		rows, err := o2.Fig4b(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].BaseKRes, "kres_base")
		b.ReportMetric(rows[0].CTKRes, "kres_ct")
		b.ReportMetric(rows[0].Speedup, "speedup")
	}
}

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
			sw := a.Sweep
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

func kbLabel(kb float64) string {
	switch {
	case kb < 1024:
		return "small"
	case kb < 10240:
		return "mid"
	default:
		return "large"
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
