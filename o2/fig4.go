package o2

// This file and its siblings (fig2.go, micro.go, ablation.go) are the
// evaluation layer: they regenerate every figure and table of the paper,
// plus ablations of the §6 design extensions, entirely through the public
// API above. cmd/o2bench and the repository's bench_test.go are thin
// wrappers around these entry points.
//
// Experiment index (see DESIGN.md):
//
//	Fig4a        — uniform directory popularity sweep (paper Fig. 4a)
//	Fig4b        — oscillating popularity sweep (paper Fig. 4b)
//	Fig2         — cache contents under thread vs O2 scheduling (Fig. 2)
//	LatencyTable — §5 hardware latency numbers
//	MigrationCost— §5 "measured cost of migration is 2000 cycles"
//	Ablations    — one Sweep per §6 extension: clustering, replication,
//	               replacement, migration-cost sensitivity, heterogeneous
//	               cores, path clustering, single-thread cache spreading

import (
	"fmt"
	"io"
)

// Fig4Config drives the Fig. 4 sweeps. Params.Seed is the sweep's base
// seed; repeats and workers are set on the Sweep that Fig4aSweep or
// Fig4bSweep returns.
type Fig4Config struct {
	Machine Topology
	// DirCounts are the x-axis points (number of directories, each
	// 1,000 entries × 32 bytes = 31.25 KB, matching the paper).
	DirCounts     []int
	EntriesPerDir int
	Params        RunParams
}

// DefaultFig4Config returns the full-scale configuration: the AMD16
// machine swept from 125 KB to 21 MB of directory data.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		Machine: AMD16,
		DirCounts: []int{
			4, 8, 16, 32, 64, 112, 160, 224, 288, 352, 416, 480, 544, 608, 672,
		},
		EntriesPerDir: 1000,
		Params:        DefaultRunParams(),
	}
}

// QuickFig4Config returns a reduced sweep for smoke tests and testing.B
// benchmarks: fewer points and shorter windows, same machine. The shapes
// hold but absolute numbers sit slightly below the converged full run.
func QuickFig4Config() Fig4Config {
	cfg := DefaultFig4Config()
	cfg.DirCounts = []int{8, 64, 224, 480, 640}
	cfg.Params.Warmup = 8_000_000
	cfg.Params.Measure = 3_000_000
	return cfg
}

// Fig4Row is one x-axis point of Fig. 4: throughput with and without
// CoreTime at a given total data size. With Repeats > 1 the KRes fields
// are means over the repeats and the Stddev fields their sample standard
// deviations (zero for a single repeat).
type Fig4Row struct {
	Dirs       int
	DataKB     float64
	BaseKRes   float64 // thousands of resolutions/sec, thread scheduler
	CTKRes     float64 // thousands of resolutions/sec, CoreTime
	BaseStddev float64
	CTStddev   float64
	Speedup    float64
	Migrations uint64 // mean CoreTime migrations in the measured window
}

// Fig4a regenerates Figure 4(a): uniform directory popularity.
func Fig4a(cfg Fig4Config) ([]Fig4Row, error) { return fig4(Fig4aSweep(cfg)) }

// Fig4b regenerates Figure 4(b): the number of directories accessed
// oscillates between the x-axis value and a sixteenth of it. The CoreTime
// monitor cadence is tied to the oscillation period so the rebalancer can
// follow the phase changes (the experiment exists to "demonstrate the
// ability of CoreTime to rebalance objects", §5).
func Fig4b(cfg Fig4Config) ([]Fig4Row, error) { return fig4(Fig4bSweep(cfg)) }

// Fig4aSweep returns the Sweep that measures Figure 4(a) on cfg. Callers
// that want per-cell repeat statistics (cmd/o2bench -json) run the sweep
// themselves; Fig4a folds it into rows.
func Fig4aSweep(cfg Fig4Config) Sweep {
	cfg.Params.Popularity = Uniform
	return fig4Sweep("fig4a", cfg)
}

// Fig4bSweep returns the Sweep that measures Figure 4(b) on cfg:
// oscillating popularity, with CoreTime's rebalance interval and decay
// window tied to the oscillation period.
func Fig4bSweep(cfg Fig4Config) Sweep {
	cfg.Params.Popularity = Oscillating
	if cfg.Params.OscillatePeriod == 0 {
		cfg.Params.OscillatePeriod = 2_000_000
	}
	if cfg.Params.OscillateDivisor == 0 {
		cfg.Params.OscillateDivisor = 16
	}
	return fig4Sweep("fig4b", cfg,
		WithRebalanceInterval(cfg.Params.OscillatePeriod/4),
		WithDecayWindow(2*cfg.Params.OscillatePeriod))
}

// fig4Sweep builds the Sweep behind a Fig. 4 run: a dirs × scheduler grid
// over the directory-lookup scenario, with ctOpts applied to the CoreTime
// cells.
func fig4Sweep(name string, cfg Fig4Config, ctOpts ...Option) Sweep {
	if cfg.EntriesPerDir == 0 {
		cfg.EntriesPerDir = 1000
	}
	return Sweep{
		Name: name,
		Base: Cell{Machine: cfg.Machine, Scenario: DirLookupScenario{Params: cfg.Params}},
		Axes: []Axis{
			DirCountAxis(cfg.EntriesPerDir, cfg.DirCounts...),
			{Name: "scheduler", Values: []AxisValue{
				{Label: Baseline.String(), Apply: func(c *Cell) { c.Scheduler = Baseline }},
				{Label: CoreTime.String(), Apply: func(c *Cell) {
					c.Scheduler = CoreTime
					c.Options = append(c.Options, ctOpts...)
				}},
			}},
		},
		Seed: cfg.Params.Seed,
	}
}

// Fig4Rows folds the result of a Fig4aSweep or Fig4bSweep sweep into the
// figure's rows, one per directory count, pairing the baseline and
// CoreTime cells.
func Fig4Rows(sweep Sweep, res *SweepResult) ([]Fig4Row, error) {
	var rows []Fig4Row
	for _, c := range sweep.cells() {
		if len(c.Labels) != 2 || c.Labels[1] != Baseline.String() {
			continue
		}
		sc, ok := c.Scenario.(DirLookupScenario)
		if !ok {
			return nil, fmt.Errorf("o2: Fig4Rows needs a directory-lookup sweep, got %T", c.Scenario)
		}
		base := res.Cell(c.Labels...)
		ct := res.Cell(c.Labels[0], CoreTime.String())
		if base == nil || ct == nil {
			return nil, fmt.Errorf("o2: sweep result missing cells at %d dirs", sc.Tree.Dirs)
		}
		row := Fig4Row{
			Dirs:       sc.Tree.Dirs,
			DataKB:     float64(sc.Tree.TotalBytes()) / 1024,
			BaseKRes:   base.Mean("kres_per_sec"),
			CTKRes:     ct.Mean("kres_per_sec"),
			BaseStddev: base.Stddev("kres_per_sec"),
			CTStddev:   ct.Stddev("kres_per_sec"),
			Migrations: uint64(ct.Mean("migrations")),
		}
		if row.BaseKRes > 0 {
			row.Speedup = row.CTKRes / row.BaseKRes
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func fig4(sweep Sweep) ([]Fig4Row, error) {
	res, err := sweep.Run()
	if err != nil {
		return nil, err
	}
	return Fig4Rows(sweep, res)
}

// WriteFig4Table prints rows in the paper's axes (total data size in KB vs
// thousands of resolutions per second). Rows carrying repeat statistics
// print as mean±stddev.
func WriteFig4Table(w io.Writer, title string, rows []Fig4Row) {
	withStats := false
	for _, r := range rows {
		if r.BaseStddev != 0 || r.CTStddev != 0 {
			withStats = true
			break
		}
	}
	fmt.Fprintf(w, "# %s\n", title)
	if withStats {
		fmt.Fprintf(w, "%10s %8s %20s %20s %9s %12s\n",
			"data(KB)", "dirs", "without-CT", "with-CT", "speedup", "migrations")
		for _, r := range rows {
			fmt.Fprintf(w, "%10.0f %8d %13.0f ±%5.0f %13.0f ±%5.0f %8.2fx %12d\n",
				r.DataKB, r.Dirs, r.BaseKRes, r.BaseStddev, r.CTKRes, r.CTStddev,
				r.Speedup, r.Migrations)
		}
		return
	}
	fmt.Fprintf(w, "%10s %8s %14s %14s %9s %12s\n",
		"data(KB)", "dirs", "without-CT", "with-CT", "speedup", "migrations")
	for _, r := range rows {
		fmt.Fprintf(w, "%10.0f %8d %14.0f %14.0f %8.2fx %12d\n",
			r.DataKB, r.Dirs, r.BaseKRes, r.CTKRes, r.Speedup, r.Migrations)
	}
}

// WriteFig4CSV emits the same series in CSV, ready for gnuplot/matplotlib
// against the paper's axes.
func WriteFig4CSV(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "data_kb,dirs,kres_without_ct,kres_with_ct,stddev_without_ct,stddev_with_ct,speedup,migrations")
	for _, r := range rows {
		fmt.Fprintf(w, "%.2f,%d,%.1f,%.1f,%.1f,%.1f,%.4f,%d\n",
			r.DataKB, r.Dirs, r.BaseKRes, r.CTKRes, r.BaseStddev, r.CTStddev, r.Speedup, r.Migrations)
	}
}

// cyclesToString formats a cycle count for tables.
func cyclesToString(c Cycles) string { return fmt.Sprintf("%d", c) }
