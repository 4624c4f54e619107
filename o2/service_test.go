package o2

import (
	"math"
	"runtime"
	"testing"
)

// webTestSpec is the Tiny8-scale tree the tests resolve against: 24
// vhost directories of 128 entries.
func webTestSpec() WebSpec {
	return WebSpec{DocRoots: 24, FilesPerRoot: 128}
}

// webCompactionInterference is the scenario's headline cell: moderate
// open-loop load (well under saturation, so queueing comes from
// interference rather than raw overload) with a half-duty background
// compactor rewriting the hot directories out from under the foreground
// reads.
func webCompactionInterference() ServiceLoad {
	return ServiceLoad{
		Requests:        1500,
		RPS:             1_000_000,
		Skew:            0.99,
		CompactionShare: 0.5,
		Seed:            42,
	}
}

func runWebPolicy(t *testing.T, p KVPolicy, spec WebSpec, load ServiceLoad) ServiceResult {
	t.Helper()
	rt, err := New(append([]Option{WithTopology(Tiny8), WithSeed(42)}, p.Options()...)...)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := rt.NewWebService(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run(load)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWebCoreTimeBeatsBaselineP99OnCompactionCell asserts the scenario's
// acceptance criterion: on the compaction-interference cell, CoreTime
// improves p99 request latency over the traditional thread scheduler.
// Under the baseline every compaction pass invalidates each core's cached
// copy of the rewritten directory, so foreground lookups repeatedly
// re-fetch whole directories through the interconnect; under CoreTime the
// directory lives in one place and both readers and the compactor migrate
// to it. The simulation is deterministic, so the measured margin (~2×) is
// stable; the 1.1× floor keeps the assertion meaningful without pinning
// exact bucket values.
func TestWebCoreTimeBeatsBaselineP99OnCompactionCell(t *testing.T) {
	spec, load := webTestSpec(), webCompactionInterference()
	base := runWebPolicy(t, KVThreadScheduler, spec, load)
	ct := runWebPolicy(t, KVCoreTime, spec, load)

	if ct.P99*1.10 > base.P99 {
		t.Errorf("coretime p99 %.0f cycles does not beat thread scheduler p99 %.0f cycles by 10%%",
			ct.P99, base.P99)
	}
	// The mean moves with the tail: interference hurts every request that
	// touches a recently compacted directory, not just the unlucky 1%.
	if ct.MeanLatency*1.10 > base.MeanLatency {
		t.Errorf("coretime mean %.0f does not beat thread scheduler mean %.0f by 10%%",
			ct.MeanLatency, base.MeanLatency)
	}
	// The mechanism, not just the outcome.
	if base.Migrations != 0 {
		t.Errorf("thread scheduler migrated %d times; baseline must never migrate", base.Migrations)
	}
	if ct.Migrations == 0 {
		t.Error("coretime recorded no migrations; the policy is not engaging")
	}
	// Neither side was overloaded: the comparison is about interference,
	// so both must have served everything offered.
	if base.Dropped != 0 || ct.Dropped != 0 {
		t.Errorf("unexpected drops (base %d, coretime %d); the cell must stay under saturation",
			base.Dropped, ct.Dropped)
	}
}

// TestWebCompactionHurtsBaselineTail pins the interference premise itself:
// with everything else equal, switching the compactor on must make the
// thread scheduler's p99 clearly worse. If this stops holding, the
// headline comparison above is measuring something else.
func TestWebCompactionHurtsBaselineTail(t *testing.T) {
	spec, load := webTestSpec(), webCompactionInterference()
	quiet := load
	quiet.CompactionShare = 0
	with := runWebPolicy(t, KVThreadScheduler, spec, load)
	without := runWebPolicy(t, KVThreadScheduler, spec, quiet)
	if with.P99 < without.P99*1.2 {
		t.Errorf("compaction moved baseline p99 only from %.0f to %.0f; interference premise gone",
			without.P99, with.P99)
	}
}

// TestWebRunDeterminism: identical seeds give identical results — the
// whole ServiceResult, quantiles included — and different seeds actually
// vary the run.
func TestWebRunDeterminism(t *testing.T) {
	load := webCompactionInterference()
	load.Requests = 400
	run := func(seed uint64) ServiceResult {
		rt := MustNew(WithTopology(Tiny8), WithSeed(seed))
		svc, err := rt.NewWebService(webTestSpec())
		if err != nil {
			t.Fatal(err)
		}
		l := load
		l.Seed = seed
		res, err := svc.Run(l)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(7), run(7), run(8)
	if a != b {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
	if a == c {
		t.Error("different seeds produced identical results; seed is not reaching the run")
	}
}

// TestWebOverloadSemantics drives the service far past saturation: the
// bounded queue must drop the excess, the achieved throughput must fall
// visibly short of offered, and accounting must balance exactly.
func TestWebOverloadSemantics(t *testing.T) {
	load := ServiceLoad{
		Requests: 1200,
		RPS:      8_000_000, // far beyond Tiny8's service capacity
		QueueCap: 16,
		Seed:     42,
	}
	res := runWebPolicy(t, KVThreadScheduler, webTestSpec(), load)
	if res.Requests != uint64(load.Requests) {
		t.Fatalf("offered %d of %d requests", res.Requests, load.Requests)
	}
	if res.Completed+res.Dropped != res.Requests {
		t.Errorf("accounting leak: %d completed + %d dropped != %d offered",
			res.Completed, res.Dropped, res.Requests)
	}
	if res.Dropped == 0 {
		t.Error("8M rps against a 16-deep queue dropped nothing; overload semantics broken")
	}
	if res.AchievedKRPS > 0.9*res.OfferedKRPS {
		t.Errorf("achieved %.0f krps not visibly below offered %.0f under overload",
			res.AchievedKRPS, res.OfferedKRPS)
	}
	// Bounded queue ⇒ bounded latency: the worst request waited at most
	// roughly the whole queue ahead of it, not the whole run.
	if res.MaxLatency >= float64(res.Elapsed) {
		t.Errorf("max latency %.0f reached the whole run length %d; queue bound not effective",
			res.MaxLatency, res.Elapsed)
	}
}

// TestWebTimeLimitInFlightAccounting truncates a run mid-flight and pins
// the three-way accounting invariant: every offered request is completed,
// dropped, or in flight — no bucket leaks — and the latency distribution
// covers completed requests only.
func TestWebTimeLimitInFlightAccounting(t *testing.T) {
	load := ServiceLoad{
		Requests:  2000,
		RPS:       1_000_000,
		Skew:      0.99,
		Seed:      42,
		TimeLimit: 1_500_000, // well before the 2000-request schedule drains
	}
	res := runWebPolicy(t, KVThreadScheduler, webTestSpec(), load)
	if res.Completed+res.Dropped+res.InFlight != res.Requests {
		t.Errorf("accounting leak: %d completed + %d dropped + %d in flight != %d offered",
			res.Completed, res.Dropped, res.InFlight, res.Requests)
	}
	if res.InFlight == 0 {
		t.Error("truncated run reported no in-flight requests; the limit did not bite")
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed before the limit")
	}
	// Percentiles exclude in-flight requests: every reported latency is a
	// completed request's, so the maximum cannot exceed the truncated
	// run's length.
	if res.MaxLatency > float64(load.TimeLimit) {
		t.Errorf("max latency %.0f exceeds the %d-cycle truncated run; in-flight requests leaked into the distribution",
			res.MaxLatency, load.TimeLimit)
	}
	// An untruncated run of the same load must report zero in flight.
	full := load
	full.TimeLimit = 0
	fres := runWebPolicy(t, KVThreadScheduler, webTestSpec(), full)
	if fres.InFlight != 0 {
		t.Errorf("untruncated run reported %d in flight", fres.InFlight)
	}
	if fres.Completed+fres.Dropped != fres.Requests {
		t.Errorf("untruncated accounting leak: %d + %d != %d",
			fres.Completed, fres.Dropped, fres.Requests)
	}
}

// TestWebTruncatedRunsLeakNoGoroutines pins that a TimeLimit-truncated
// run stops the threads it stranded. Left running, each stranded thread
// pins a goroutine, and through it the whole runtime, for the life of the
// process: five of these runs would add 40 goroutines.
func TestWebTruncatedRunsLeakNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	load := ServiceLoad{Requests: 2000, RPS: 1_000_000, Skew: 0.99, Seed: 42, TimeLimit: 200_000}
	for i := 0; i < 5; i++ {
		if res := runWebPolicy(t, KVThreadScheduler, webTestSpec(), load); res.Requests == uint64(load.Requests) {
			t.Fatal("every request arrived; the limit did not bite")
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d → %d across five truncated runs: stranded threads leak", before, after)
	}
}

// TestWebDirectHandoff runs the parked-worker drive end to end: an
// underloaded run must complete everything it offers, deterministically,
// with the same accounting invariant as the polled drive.
func TestWebDirectHandoff(t *testing.T) {
	load := ServiceLoad{
		Requests:      800,
		RPS:           1_000_000,
		Skew:          0.99,
		Seed:          42,
		DirectHandoff: true,
	}
	a := runWebPolicy(t, KVThreadScheduler, webTestSpec(), load)
	b := runWebPolicy(t, KVThreadScheduler, webTestSpec(), load)
	if a != b {
		t.Errorf("direct-handoff run not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Completed != uint64(load.Requests) || a.Dropped != 0 || a.InFlight != 0 {
		t.Errorf("underloaded direct-handoff run should complete everything: %+v", a)
	}
	if a.P50 <= 0 || a.MaxLatency < a.P999 {
		t.Errorf("degenerate latency distribution: %+v", a)
	}
	// The two drives share the schedule and the queue: offered counts and
	// the served total must agree even though worker interleaving (and so
	// per-request placement) differs.
	polled := load
	polled.DirectHandoff = false
	p := runWebPolicy(t, KVThreadScheduler, webTestSpec(), polled)
	if p.Completed != a.Completed || p.Requests != a.Requests {
		t.Errorf("drive modes disagree on accounting: handoff %+v vs polled %+v", a, p)
	}
}

// TestWebDirectHandoffUnderOverloadAndLimit combines everything: the
// parked-worker drive past saturation with a time limit still satisfies
// the three-way invariant.
func TestWebDirectHandoffUnderOverloadAndLimit(t *testing.T) {
	load := ServiceLoad{
		Requests:      1200,
		RPS:           8_000_000,
		QueueCap:      16,
		Seed:          42,
		DirectHandoff: true,
		TimeLimit:     400_000,
	}
	res := runWebPolicy(t, KVThreadScheduler, webTestSpec(), load)
	if res.Completed+res.Dropped+res.InFlight != res.Requests {
		t.Errorf("accounting leak: %d + %d + %d != %d",
			res.Completed, res.Dropped, res.InFlight, res.Requests)
	}
	if res.Dropped == 0 {
		t.Error("overloaded run dropped nothing")
	}
}

// TestWebLatencyQuantileShape checks internal consistency of the reported
// distribution on an ordinary cell.
func TestWebLatencyQuantileShape(t *testing.T) {
	load := webCompactionInterference()
	load.Requests = 600
	res := runWebPolicy(t, KVCoreTime, webTestSpec(), load)
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	qs := []float64{res.P50, res.P95, res.P99, res.P999, res.MaxLatency}
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			t.Fatalf("quantiles not monotone: %v", qs)
		}
	}
	if res.P50 <= 0 || math.IsInf(res.P999, 0) {
		t.Errorf("quantiles out of range: p50=%v p999=%v", res.P50, res.P999)
	}
	if res.MeanLatency < res.P50/8 || res.MeanLatency > res.MaxLatency {
		t.Errorf("mean %.0f implausible against p50 %.0f / max %.0f",
			res.MeanLatency, res.P50, res.MaxLatency)
	}
}

// TestWebUniformArrivals runs the deterministic-uniform arrival process
// end to end: an underloaded uniform stream must complete everything it
// offers. (Exact spacing and seed independence of the stream itself are
// pinned at the workload layer by TestArrivalTimesUniform.)
func TestWebUniformArrivals(t *testing.T) {
	load := ServiceLoad{
		Requests: 300,
		RPS:      500_000,
		Arrivals: UniformArrivals,
		Seed:     42,
	}
	res := runWebPolicy(t, KVThreadScheduler, webTestSpec(), load)
	if res.Completed != uint64(load.Requests) || res.Dropped != 0 {
		t.Errorf("uniform underload run should complete everything: %+v", res)
	}
}

// TestWebServiceDefaultsAndValidation covers the spec and load defaulting
// and rejection paths.
func TestWebServiceDefaultsAndValidation(t *testing.T) {
	d := WebSpec{}.WithDefaults()
	if d.DocRoots != 64 || d.FilesPerRoot != 512 {
		t.Errorf("unexpected spec defaults: %+v", d)
	}
	l := ServiceLoad{CompactionShare: 0.3}.WithDefaults(8)
	if l.Workers != 8 || l.Requests != 4000 || l.QueueCap != 32 || l.CompactionWorkers != 1 {
		t.Errorf("unexpected load defaults: %+v", l)
	}
	if noComp := (ServiceLoad{CompactionWorkers: 3}).WithDefaults(8); noComp.CompactionWorkers != 0 {
		t.Errorf("CompactionWorkers without a share should resolve to 0, got %d", noComp.CompactionWorkers)
	}

	rt := MustNew(WithTopology(Small4))
	if _, err := rt.NewWebService(WebSpec{DocRoots: -1}); err == nil {
		t.Error("negative docroot count accepted")
	}
	svc, err := rt.NewWebService(WebSpec{DocRoots: 4, FilesPerRoot: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []ServiceLoad{
		{},                                       // no RPS
		{RPS: -1},                                // negative rate
		{RPS: math.NaN()},                        // NaN rate
		{RPS: math.Inf(1)},                       // infinite rate
		{RPS: 1000, CompactionShare: 1},          // share must stay below 1
		{RPS: 1000, CompactionShare: -0.5},       // negative share
		{RPS: 1000, Workers: -2},                 // negative workers
		{RPS: 1000, QueueCap: -4},                // negative queue bound
		{RPS: 1000, Requests: -7},                // negative request count
		{RPS: 1000, CompactionWorkers: -1},       // negative compactors
		{RPS: 1000, Skew: -0.5},                  // negative skew
		{RPS: 1000, Arrivals: ArrivalProcess(9)}, // unknown arrival process
	} {
		if _, err := svc.Run(bad); err == nil {
			t.Errorf("invalid load accepted: %+v", bad)
		}
	}
}

// TestServiceCellHonorsCellScheduler: Cell.Scheduler is authoritative for
// ServiceCell exactly as for DirLookupCell and KVCell, and PolicyAxis
// keeps it in sync with the policy it applies.
func TestServiceCellHonorsCellScheduler(t *testing.T) {
	base := Cell{
		Machine: Tiny8,
		Web:     WebSpec{DocRoots: 6, FilesPerRoot: 64},
		Service: ServiceLoad{Requests: 120, RPS: 400_000},
	}

	bare := base
	bare.Scheduler = Baseline
	m, err := ServiceCell(bare)
	if err != nil {
		t.Fatal(err)
	}
	if m["migrations"] != 0 {
		t.Errorf("Scheduler=Baseline cell migrated %v times; ServiceCell is ignoring Cell.Scheduler", m["migrations"])
	}

	viaAxis := base
	viaAxis.Scheduler = Baseline
	PolicyAxis(KVCoreTime).Values[0].Apply(&viaAxis)
	if viaAxis.Scheduler != CoreTime {
		t.Fatalf("PolicyAxis left Cell.Scheduler = %v, want CoreTime", viaAxis.Scheduler)
	}
	m, err = ServiceCell(viaAxis)
	if err != nil {
		t.Fatal(err)
	}
	if m["migrations"] == 0 {
		t.Error("PolicyAxis(KVCoreTime) cell never migrated; the policy is not in effect")
	}
}

// TestWebSweepWorkerInvariance runs a small rate×policy grid at one and
// many workers: the SweepResults must be deeply identical — the service
// instance of the engine's determinism guarantee, now covering latency
// quantiles.
func TestWebSweepWorkerInvariance(t *testing.T) {
	cfg := QuickWebConfig()
	cfg.Spec = WebSpec{DocRoots: 8, FilesPerRoot: 64}
	cfg.Load.Requests = 150
	cfg.Rates = []float64{400_000, 1_600_000}
	cfg.CompactionShares = []float64{0.5}
	cfg.Policies = []KVPolicy{KVThreadScheduler, KVCoreTime}

	run := func(workers int) *SweepResult {
		_, sweep := WebSweep(cfg)
		sweep.Seed = 5
		res, err := sweep.WithWorkers(workers).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, many := run(1), run(8)
	if len(one.Cells) != len(many.Cells) {
		t.Fatalf("cell count differs: %d vs %d", len(one.Cells), len(many.Cells))
	}
	for i := range one.Cells {
		a, b := one.Cells[i], many.Cells[i]
		for _, m := range []string{"offered_krps", "achieved_krps", "drop_rate",
			"p50_cycles", "p95_cycles", "p99_cycles", "p999_cycles", "mean_cycles", "migrations"} {
			if a.Stats[m] != b.Stats[m] {
				t.Errorf("cell %d %v metric %s differs across worker counts: %+v vs %+v",
					i, a.Labels, m, a.Stats[m], b.Stats[m])
			}
		}
	}
}

// TestWebSweepAxisLabels pins the axis labels service cells are addressed
// by in results and JSON.
func TestWebSweepAxisLabels(t *testing.T) {
	_, sweep := WebSweep(WebConfig{Rates: []float64{250_000}, CompactionShares: []float64{0, 0.25}})
	names := []string{sweep.Axes[0].Name, sweep.Axes[1].Name, sweep.Axes[2].Name}
	if names[0] != "rps" || names[1] != "compaction" || names[2] != "policy" {
		t.Errorf("axis names drifted: %v", names)
	}
	if l := sweep.Axes[0].Values[0].Label; l != "250k" {
		t.Errorf("rate label = %q, want 250k", l)
	}
	if l := sweep.Axes[1].Values[1].Label; l != "0.25" {
		t.Errorf("compaction label = %q, want 0.25", l)
	}
}
