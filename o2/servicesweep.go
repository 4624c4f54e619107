package o2

// Sweep integration for the WebService scenario: the ArrivalRate and
// Compaction axes (placement policies reuse policyAxis — the KVPolicy
// bundles are scheduler configurations, not KV-specific), the WebScenario
// cell workload, and the web and soak presets' configurations and sweeps.

import (
	"fmt"
	"strconv"
)

// arrivalRateAxis sweeps the offered arrival rate in requests per second
// of simulated time — the axis that walks a service from underload through
// saturation into overload.
func arrivalRateAxis(rps ...float64) Axis {
	vals := make([]AxisValue, len(rps))
	for i, r := range rps {
		vals[i] = AxisValue{
			Label: fmt.Sprintf("%gk", r/1000),
			Apply: editScenario("rps", func(s *WebScenario) { s.Load.RPS = r }),
		}
	}
	return Axis{Name: "rps", Values: vals}
}

// compactionAxis sweeps the background compaction duty cycle (0 disables
// the compaction thread class).
func compactionAxis(shares ...float64) Axis {
	vals := make([]AxisValue, len(shares))
	for i, s := range shares {
		vals[i] = AxisValue{
			Label: strconv.FormatFloat(s, 'g', -1, 64),
			Apply: editScenario("compaction", func(sc *WebScenario) { sc.Load.CompactionShare = s }),
		}
	}
	return Axis{Name: "compaction", Values: vals}
}

// WebScenario is the web scenario as a sweep cell's workload: the
// service Spec is built once per cell and offered the open-loop Load. The
// cell seed reaches both the runtime and the load generator, so results
// are a pure function of the grid position — the worker-count invariance
// the web preset golden test pins.
type WebScenario struct {
	Spec WebSpec
	Load ServiceLoad
}

func (s WebScenario) measure(c Cell) (Metrics, error) {
	svc, err := scenarioForCell(c, func(rt *Runtime) (*WebService, error) {
		return rt.NewWebService(s.Spec)
	})
	if err != nil {
		return nil, err
	}
	s.Load.Seed = c.Seed
	res, err := svc.Run(s.Load)
	if err != nil {
		return nil, err
	}
	return Metrics{
		"offered_krps":  res.OfferedKRPS,
		"achieved_krps": res.AchievedKRPS,
		"drop_rate":     float64(res.Dropped) / float64(res.Requests),
		"p50_cycles":    res.P50,
		"p95_cycles":    res.P95,
		"p99_cycles":    res.P99,
		"p999_cycles":   res.P999,
		"mean_cycles":   res.MeanLatency,
		"migrations":    float64(res.Migrations),
	}, nil
}

// webConfig drives the web and soak presets: the cross product of Rates
// × CompactionShares × Policies on one machine and document tree. Seed,
// repeats, and workers are set on the Sweep that webSweep returns.
type webConfig struct {
	Machine Topology
	// Spec shapes the document tree.
	Spec WebSpec
	// Load is the per-cell load template; Rates and CompactionShares
	// sweep its arrival rate and compaction duty cycle. Its zero fields
	// resolve per cell against the machine's core count.
	Load             ServiceLoad
	Rates            []float64
	CompactionShares []float64
	Policies         []KVPolicy
}

// defaultWebConfig returns the full-scale configuration: the AMD16 machine
// resolving names against a 224-vhost tree (the Fig. 4 regime where the
// working set exceeds one chip but fits the aggregate cache) at arrival
// rates walking toward the thread scheduler's saturation point, with and
// without a half-duty background compactor, across all placement policies.
func defaultWebConfig() webConfig {
	return webConfig{
		Machine:          AMD16,
		Spec:             WebSpec{DocRoots: 224, FilesPerRoot: 1000},
		Load:             defaultServiceLoad(),
		Rates:            []float64{200_000, 400_000, 800_000},
		CompactionShares: []float64{0, 0.5},
		Policies:         KVPolicies(),
	}
}

// quickWebConfig returns a reduced sweep for smoke tests: the Tiny8
// machine and a kilobyte-scale tree, same axes.
func quickWebConfig() webConfig {
	cfg := defaultWebConfig()
	cfg.Machine = Tiny8
	cfg.Spec = WebSpec{DocRoots: 24, FilesPerRoot: 128}
	cfg.Load.Requests = 800
	cfg.Rates = []float64{500_000, 1_000_000, 2_000_000}
	return cfg
}

// soakWebConfig returns the endurance configuration behind the soak
// preset: one million requests per cell through the direct-handoff drive
// (parked workers, one chained arrival event) against the AMD16 machine,
// baseline vs CoreTime. The point is engine throughput at scale — the
// run must finish in seconds, in constant queue space, with exact
// accounting across a million requests — rather than a new comparison
// axis.
func soakWebConfig() webConfig {
	cfg := defaultWebConfig()
	cfg.Spec = WebSpec{DocRoots: 64, FilesPerRoot: 256}
	cfg.Load.Requests = 1_000_000
	cfg.Load.DirectHandoff = true
	cfg.Rates = []float64{600_000}
	cfg.CompactionShares = []float64{0}
	cfg.Policies = []KVPolicy{KVThreadScheduler, KVCoreTime}
	return cfg
}

// quickSoakWebConfig returns the CI-scale soak: the Tiny8 machine and
// 50k requests per cell, same drive and axes.
func quickSoakWebConfig() webConfig {
	cfg := soakWebConfig()
	cfg.Machine = Tiny8
	cfg.Spec = WebSpec{DocRoots: 24, FilesPerRoot: 128}
	cfg.Load.Requests = 50_000
	cfg.Rates = []float64{1_000_000}
	return cfg
}

// webSweep returns the report title and the Sweep that measures cfg.
func webSweep(cfg webConfig) (string, Sweep) {
	title := fmt.Sprintf("WebService: open-loop name resolution on %s (%d vhosts × %d files, %d KB of metadata)",
		cfg.Machine.Name(), cfg.Spec.DocRoots, cfg.Spec.FilesPerRoot, cfg.Spec.MetadataBytes()/1024)
	return title, Sweep{
		Name: "web",
		Base: Cell{Machine: cfg.Machine, Scenario: WebScenario{Spec: cfg.Spec, Load: cfg.Load}},
		Axes: []Axis{
			arrivalRateAxis(cfg.Rates...),
			compactionAxis(cfg.CompactionShares...),
			policyAxis(cfg.Policies...),
		},
	}
}

// soakSweep is webSweep under the soak preset's name and title.
func soakSweep(cfg webConfig) (string, Sweep) {
	_, sw := webSweep(cfg)
	sw.Name = "soak"
	return fmt.Sprintf("Soak: %d direct-handoff requests per cell on %s (%d vhosts × %d files)",
		cfg.Load.Requests, cfg.Machine.Name(), cfg.Spec.DocRoots, cfg.Spec.FilesPerRoot), sw
}

// webColumns report a web or soak sweep: offered vs achieved throughput,
// the drop rate, and the latency quantiles (p99 ±stddev when the sweep
// carried repeats). Mean latency and migrations appear in the CSV only.
var webColumns = []column{
	{name: "offered_krps", head: "off krps", width: 10, csv: 1},
	{name: "achieved_krps", head: "ach krps", width: 10, csv: 1},
	{name: "drop_rate", head: "drop%", width: 6, prec: 1, csv: 4, pct: true},
	{name: "p50_cycles", head: "p50", width: 10},
	{name: "p95_cycles", head: "p95", width: 10},
	{name: "p99_cycles", head: "p99 (cycles)", width: 12, spread: "p99_stddev"},
	{name: "p999_cycles", head: "p999", width: 12},
	{name: "mean_cycles"},
	{name: "migrations"},
}
