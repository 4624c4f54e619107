package o2

// This file and its siblings (fig2.go, micro.go, ablation.go) are the
// evaluation layer: they regenerate every figure and table of the paper,
// plus ablations of the §6 design extensions, entirely through the public
// API above. cmd/o2bench and the repository's bench_test.go are thin
// wrappers around these entry points.
//
// Experiment index (see DESIGN.md):
//
//	Presets      — the fig4a/fig4b sweeps (paper Fig. 4a/4b) and the kv,
//	               web, soak and scale scenarios (preset.go)
//	Fig2         — cache contents under thread vs O2 scheduling (Fig. 2)
//	LatencyTable — §5 hardware latency numbers
//	MigrationCost— §5 "measured cost of migration is 2000 cycles"
//	Ablations    — one preset per §6 extension: clustering, replication,
//	               replacement, migration-cost sensitivity, heterogeneous
//	               cores, path clustering, single-thread cache spreading

import (
	"fmt"
	"io"
)

// fig4Config drives the Fig. 4 presets. Params.Seed is the sweep's base
// seed; repeats and workers are set on the Sweep that fig4aSweep or
// fig4bSweep returns.
type fig4Config struct {
	Machine Topology
	// DirCounts are the x-axis points (number of directories, each
	// 1,000 entries × 32 bytes = 31.25 KB, matching the paper).
	DirCounts     []int
	EntriesPerDir int
	Params        RunParams
}

// defaultFig4Config returns the full-scale configuration: the AMD16
// machine swept from 125 KB to 21 MB of directory data.
func defaultFig4Config() fig4Config {
	return fig4Config{
		Machine: AMD16,
		DirCounts: []int{
			4, 8, 16, 32, 64, 112, 160, 224, 288, 352, 416, 480, 544, 608, 672,
		},
		EntriesPerDir: 1000,
		Params:        DefaultRunParams(),
	}
}

// quickFig4Config returns a reduced sweep for smoke tests and testing.B
// benchmarks: fewer points and shorter windows, same machine. The shapes
// hold but absolute numbers sit slightly below the converged full run.
func quickFig4Config() fig4Config {
	cfg := defaultFig4Config()
	cfg.DirCounts = []int{8, 64, 224, 480, 640}
	cfg.Params.Warmup = 8_000_000
	cfg.Params.Measure = 3_000_000
	return cfg
}

// fig4Row is one x-axis point of Fig. 4: throughput with and without
// CoreTime at a given total data size. With Repeats > 1 the KRes fields
// are means over the repeats and the Stddev fields their sample standard
// deviations (zero for a single repeat).
type fig4Row struct {
	Dirs       int
	DataKB     float64
	BaseKRes   float64 // thousands of resolutions/sec, thread scheduler
	CTKRes     float64 // thousands of resolutions/sec, CoreTime
	BaseStddev float64
	CTStddev   float64
	Speedup    float64
	Migrations uint64 // mean CoreTime migrations in the measured window
}

// fig4aSweep returns the title and Sweep of Figure 4(a) on cfg: uniform
// directory popularity.
func fig4aSweep(cfg fig4Config) (string, Sweep) {
	cfg.Params.Popularity = Uniform
	return "Figure 4(a): file system results, uniform directory popularity", fig4Sweep("fig4a", cfg)
}

// fig4bSweep returns the title and Sweep of Figure 4(b) on cfg: the
// number of directories accessed oscillates between the x-axis value and
// a sixteenth of it. The CoreTime monitor cadence is tied to the
// oscillation period so the rebalancer can follow the phase changes (the
// experiment exists to "demonstrate the ability of CoreTime to rebalance
// objects", §5).
func fig4bSweep(cfg fig4Config) (string, Sweep) {
	cfg.Params.Popularity = Oscillating
	return "Figure 4(b): file system results, oscillated directory popularity", fig4Sweep("fig4b", cfg,
		WithRebalanceInterval(cfg.Params.OscillatePeriod/4),
		WithDecayWindow(2*cfg.Params.OscillatePeriod))
}

// fig4Sweep builds the Sweep behind a Fig. 4 run: a dirs × scheduler grid
// over the directory-lookup scenario, with ctOpts applied to the CoreTime
// cells.
func fig4Sweep(name string, cfg fig4Config, ctOpts ...Option) Sweep {
	return Sweep{
		Name: name,
		Base: Cell{Machine: cfg.Machine, Scenario: DirLookupScenario{Params: cfg.Params}},
		Axes: []Axis{
			dirCountAxis(cfg.EntriesPerDir, cfg.DirCounts...),
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

// fig4Rows folds the result of a Fig. 4 sweep into the figure's rows, one
// per directory count, pairing the baseline and CoreTime cells.
func fig4Rows(sweep Sweep, res *SweepResult) ([]fig4Row, error) {
	var rows []fig4Row
	for _, c := range sweep.cells() {
		if len(c.Labels) != 2 || c.Labels[1] != Baseline.String() {
			continue
		}
		sc, ok := c.Scenario.(DirLookupScenario)
		if !ok {
			return nil, fmt.Errorf("o2: fig4Rows needs a directory-lookup sweep, got %T", c.Scenario)
		}
		base := res.Cell(c.Labels...)
		ct := res.Cell(c.Labels[0], CoreTime.String())
		if base == nil || ct == nil {
			return nil, fmt.Errorf("o2: sweep result missing cells at %d dirs", sc.Tree.Dirs)
		}
		row := fig4Row{
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

// renderFig4 renders a Fig. 4 sweep one row per directory count, pairing
// its two schedulers as the paper's figure does: in the paper's axes
// (total data size in KB vs thousands of resolutions per second), or as
// CSV ready for gnuplot/matplotlib. Rows carrying repeat statistics print
// as mean±stddev.
func renderFig4(w io.Writer, title string, sw Sweep, res *SweepResult, csv bool) error {
	rows, err := fig4Rows(sw, res)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "data_kb,dirs,kres_without_ct,kres_with_ct,stddev_without_ct,stddev_with_ct,speedup,migrations")
		for _, r := range rows {
			fmt.Fprintf(w, "%.2f,%d,%.1f,%.1f,%.1f,%.1f,%.4f,%d\n",
				r.DataKB, r.Dirs, r.BaseKRes, r.CTKRes, r.BaseStddev, r.CTStddev, r.Speedup, r.Migrations)
		}
		return nil
	}
	withStats := false
	for _, r := range rows {
		withStats = withStats || r.BaseStddev != 0 || r.CTStddev != 0
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
		return nil
	}
	fmt.Fprintf(w, "%10s %8s %14s %14s %9s %12s\n",
		"data(KB)", "dirs", "without-CT", "with-CT", "speedup", "migrations")
	for _, r := range rows {
		fmt.Fprintf(w, "%10.0f %8d %14.0f %14.0f %8.2fx %12d\n",
			r.DataKB, r.Dirs, r.BaseKRes, r.CTKRes, r.Speedup, r.Migrations)
	}
	return nil
}

// cyclesToString formats a cycle count for tables.
func cyclesToString(c Cycles) string { return fmt.Sprintf("%d", c) }
