package o2

import (
	"strings"
	"testing"
)

func TestLatencyTableMatchesPaper(t *testing.T) {
	rows, err := LatencyTable()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"L1 hit":                   3,
		"L2 hit":                   14,
		"L3 hit":                   75,
		"remote cache (same chip)": 127,
		"DRAM (local bank)":        230,
		"DRAM (most distant bank)": 336,
	}
	got := map[string]int64{}
	for _, r := range rows {
		got[r.Name] = int64(r.Measured)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d cycles, want %d (paper §5)", name, got[name], w)
		}
	}
	// Remote fetches must span the paper's 127–336 range monotonically.
	if !(got["remote cache (same chip)"] < got["remote cache (1 hop)"] &&
		got["remote cache (1 hop)"] < got["remote cache (2 hops)"]) {
		t.Error("remote cache latencies not monotone in distance")
	}
}

func TestMigrationCostNearPaper(t *testing.T) {
	r, err := MigrationCost(32)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanCycles < 1200 || r.MeanCycles > 3000 {
		t.Fatalf("migration cost %.0f cycles, want ≈2000 (paper §5)", r.MeanCycles)
	}
	if r.CrossChip <= r.SameChip {
		t.Errorf("cross-chip migration (%.0f) should cost more than same-chip (%.0f)",
			r.CrossChip, r.SameChip)
	}
}

func TestFig4SmokeTiny(t *testing.T) {
	// A reduced sweep on the Tiny8 machine: validates the end-to-end
	// harness and the headline shape (CoreTime wins once data exceeds a
	// chip's caches) without AMD16 simulation cost.
	cfg := fig4Config{
		Machine:       Tiny8,
		DirCounts:     []int{2, 8, 16},
		EntriesPerDir: 512, // 16 KB per dir
		Params:        DefaultRunParams(),
	}
	cfg.Params.Threads = 8
	cfg.Params.Warmup = 800_000
	cfg.Params.Measure = 1_600_000

	_, sw := fig4aSweep(cfg)
	res, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := fig4Rows(sw, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.BaseKRes <= 0 || r.CTKRes <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
	}
	// 8 dirs = 128 KB: exceeds one chip (64 KB), fits on-chip total.
	mid := rows[1]
	if mid.Speedup < 1.3 {
		t.Errorf("at 8 dirs CoreTime speedup = %.2fx, want clearly > 1 (paper: 2–3x)", mid.Speedup)
	}
	if mid.Migrations == 0 {
		t.Error("CoreTime never migrated at the mid point")
	}
	var sb strings.Builder
	if err := renderFig4(&sb, "fig4a tiny", sw, res, false); err != nil || !strings.Contains(sb.String(), "without-CT") {
		t.Errorf("table formatting broken (%v):\n%s", err, sb.String())
	}
}

func TestFig4bOscillatingSmoke(t *testing.T) {
	// Fig. 4b exists to show CoreTime rebalancing when the active set
	// oscillates (§5). At Tiny8 scale the decisive comparison is
	// CoreTime with the monitor (decay + rebalance) against CoreTime
	// without it: 24 dirs of 16 KB against a budget of ~8 placements
	// means the monitor must evict stale placements for the active set
	// to fit.
	p := DefaultRunParams()
	p.Threads = 8
	p.Warmup = 900_000
	p.Measure = 3_600_000
	p.Popularity = Oscillating
	p.OscillatePeriod = 600_000
	p.OscillateDivisor = 4 // small phase: 6 dirs

	exp := Experiment{
		Machine: Tiny8,
		Tree:    DirSpec{Dirs: 24, EntriesPerDir: 512},
		Params:  p,
	}
	run := func(monitor bool) float64 {
		var opts []Option
		if monitor {
			opts = []Option{WithRebalanceInterval(150_000), WithDecayWindow(450_000)}
		} else {
			opts = []Option{WithRebalanceInterval(0), WithDecayWindow(0)}
		}
		res, err := exp.Run(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res.KResPerSec
	}

	static := run(false)
	rebal := run(true)
	t.Logf("fig4b tiny: coretime static %.0f, with monitor %.0f (%.2fx)",
		static, rebal, rebal/static)
	if rebal <= static {
		t.Errorf("monitor (rebalance+decay) did not help under oscillation: %.0f vs %.0f",
			rebal, static)
	}
}

func TestFig2ShowsDeduplication(t *testing.T) {
	cfg := DefaultFig2Config()
	cfg.Warmup = 1_500_000
	base, o2map, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("thread scheduler: %d/%d on-chip, duplication %.2f",
		base.DistinctOnChip, len(base.Dirs), base.Duplication)
	t.Logf("o2 scheduler:     %d/%d on-chip, duplication %.2f",
		o2map.DistinctOnChip, len(o2map.Dirs), o2map.Duplication)
	// The paper's Fig. 2 claim: the O2 scheduler stores more distinct
	// directories on-chip with less duplication.
	if o2map.DistinctOnChip < base.DistinctOnChip {
		t.Errorf("O2 keeps fewer dirs on-chip (%d) than thread scheduling (%d)",
			o2map.DistinctOnChip, base.DistinctOnChip)
	}
	if o2map.Duplication >= base.Duplication {
		t.Errorf("O2 duplication %.2f not below thread scheduling %.2f",
			o2map.Duplication, base.Duplication)
	}
	var sb strings.Builder
	WriteCacheMap(&sb, cfg.Machine, base)
	WriteCacheMap(&sb, cfg.Machine, o2map)
	if !strings.Contains(sb.String(), "off-chip") {
		t.Error("cache map rendering broken")
	}
}

// runAblation runs the named ablation at o2bench's default seed.
func runAblation(t *testing.T, name string) *SweepResult {
	t.Helper()
	for _, a := range Ablations() {
		if a.Name == name {
			_, sw := a.Build(false)
			sw.Seed = 1
			res, err := sw.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}
	t.Fatalf("no ablation %q", name)
	return nil
}

// ablationKOpsOf returns the throughput column of the cell with the
// given labels.
func ablationKOpsOf(t *testing.T, res *SweepResult, labels ...string) float64 {
	t.Helper()
	c := res.Cell(labels...)
	if c == nil {
		t.Fatalf("ablation %s has no cell %v", res.Name, labels)
	}
	return throughput(c).Mean
}

func TestAblationClustering(t *testing.T) {
	res := runAblation(t, "clustering")
	off, on := ablationKOpsOf(t, res, "off"), ablationKOpsOf(t, res, "on")
	t.Logf("clustering: off %.0f, on %.0f kops/s", off, on)
	if on <= off {
		t.Errorf("clustering did not help: %.0f vs %.0f", on, off)
	}
}

func TestAblationReplication(t *testing.T) {
	res := runAblation(t, "replication")
	off, on := ablationKOpsOf(t, res, "off"), ablationKOpsOf(t, res, "on")
	t.Logf("replication: off %.0f, on %.0f kops/s", off, on)
	if on <= off {
		t.Errorf("replication did not help: %.0f vs %.0f", on, off)
	}
}

func TestAblationReplacement(t *testing.T) {
	res := runAblation(t, "replacement")
	firstFit, freq := ablationKOpsOf(t, res, "first-fit"), ablationKOpsOf(t, res, "frequency")
	t.Logf("replacement: first-fit %.0f, frequency %.0f kres/s", firstFit, freq)
	// Frequency-based replacement should not lose; usually it wins.
	if freq < firstFit*0.95 {
		t.Errorf("frequency replacement regressed: %.0f vs %.0f", freq, firstFit)
	}
}

func TestAblationMigrationCostMonotone(t *testing.T) {
	res := runAblation(t, "migcost")
	for i := range res.Cells {
		t.Logf("%-16s %8.0f kres/s", res.Cells[i].Labels[0], throughput(&res.Cells[i]).Mean)
	}
	// Throughput must not increase with migration cost (allowing noise).
	first, last := ablationKOpsOf(t, res, "0"), ablationKOpsOf(t, res, "8000")
	if last > first*1.05 {
		t.Errorf("higher migration cost improved throughput: %.0f → %.0f", first, last)
	}
}

func TestAblationPathClustering(t *testing.T) {
	res := runAblation(t, "paths")
	for i := range res.Cells {
		c := &res.Cells[i]
		t.Logf("%-16s %8.0f kres/s %6.0f migrations", c.Labels[0], c.Mean("kres_per_sec"), c.Mean("migrations"))
	}
	flat, clustered := ablationKOpsOf(t, res, "off"), ablationKOpsOf(t, res, "on")
	if clustered < flat {
		t.Errorf("path clustering slowed resolution: %.0f vs %.0f", clustered, flat)
	}
}

func TestAblationSingleThread(t *testing.T) {
	// §1: a single-threaded application with a working set larger than
	// one core's cache runs faster when CoreTime walks it across the
	// machine's caches.
	res := runAblation(t, "single")
	pinned, ct := ablationKOpsOf(t, res, "thread-scheduler"), ablationKOpsOf(t, res, "coretime")
	t.Logf("single-thread: pinned %.0f, coretime %.0f kops/s (%.2fx)", pinned, ct, ct/pinned)
	if ct <= pinned*1.3 {
		t.Errorf("single-thread CoreTime advantage too small: %.0f vs %.0f", ct, pinned)
	}
}

func TestAblationHeterogeneous(t *testing.T) {
	res := runAblation(t, "hetero")
	base, ct := ablationKOpsOf(t, res, "thread-scheduler"), ablationKOpsOf(t, res, "coretime")
	t.Logf("hetero: thread scheduler %.0f, coretime %.0f kres/s (%.2fx)", base, ct, ct/base)
	if base <= 0 || ct <= 0 {
		t.Fatal("degenerate heterogeneous results")
	}
}

// benchFig4Config is a three-point sweep through the regions that define
// Figure 4's shape: lock-bound left edge, CoreTime's sweet spot, and the
// over-capacity right edge.
func benchFig4Config() fig4Config {
	cfg := quickFig4Config()
	cfg.DirCounts = []int{8, 224, 640}
	return cfg
}

// runFig4 runs a Fig. 4 sweep and folds it into the figure's rows.
func runFig4(b *testing.B, sw Sweep) []fig4Row {
	b.Helper()
	res, err := sw.Run()
	if err != nil {
		b.Fatal(err)
	}
	rows, err := fig4Rows(sw, res)
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

// BenchmarkFig4aUniform regenerates Figure 4(a): file system throughput
// under uniform directory popularity, with and without CoreTime.
func BenchmarkFig4aUniform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, sw := fig4aSweep(benchFig4Config())
		rows := runFig4(b, sw)
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
		_, sw := fig4bSweep(cfg)
		rows := runFig4(b, sw)
		b.ReportMetric(rows[0].BaseKRes, "kres_base")
		b.ReportMetric(rows[0].CTKRes, "kres_ct")
		b.ReportMetric(rows[0].Speedup, "speedup")
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
