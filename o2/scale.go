package o2

// The scale sweep behind `o2bench scale`: the big-machine experiment of
// the NUMA round. It asks the question the paper's Figure 4 cannot — what
// happens to the with/without-CoreTime comparison when the machine grows
// from 16 cores to 64, 128, and 256 — by sweeping machine × service ×
// policy with every service's working set sized *per core*. Holding
// per-core pressure constant means a bigger machine offers proportionally
// more total traffic to its memory controllers and interconnect links,
// which on the NUMA presets are saturating resources (see
// topology.NUMALatencies): once aggregate misses outrun a port's service
// rate, queueing delay accumulates instead of resetting every accounting
// window. The thread scheduler, whose every core walks the whole working
// set, crosses that cliff first; CoreTime keeps objects cache-resident
// and largely stays below it. The per-core throughput column makes the
// divergence legible at a glance: flat for CoreTime, collapsing for the
// thread scheduler.

import "fmt"

// ScaleService selects which workload a scale-sweep cell drives. Each
// service sizes its working set per core, so moving along the machine
// axis holds per-core cache pressure constant while total bandwidth
// demand grows with the core count.
type ScaleService int

const (
	// ScaleDirLookup is the paper's directory-lookup workload with the
	// tree sized per core (ScaleConfig.DirsPerCore) and one worker
	// thread per core — Figure 4's experiment stretched along the
	// machine axis.
	ScaleDirLookup ScaleService = iota
	// ScaleKV is the KVService scenario with the shard count sized per
	// core and the load's default two clients per core.
	ScaleKV
)

// ScaleServices returns both services in comparison order.
func ScaleServices() []ScaleService { return []ScaleService{ScaleDirLookup, ScaleKV} }

// String returns the service's axis label.
func (s ScaleService) String() string {
	if s == ScaleKV {
		return "kv"
	}
	return "dirlookup"
}

// ScaleConfig drives the `o2bench scale` sweep: the cross product of
// Machines × Services × Policies, with each service's working set sized
// per core of the cell's machine. Seed, repeats, and workers are set on
// the Sweep that ScaleSweep returns.
type ScaleConfig struct {
	// Machines is the core-count axis, smallest first (default AMD16,
	// NUMA64, NUMA128, NUMA256).
	Machines []Topology
	// Services are the workloads driven at every machine size (default
	// both).
	Services []ScaleService
	// Policies are the placement policies compared (default thread
	// scheduler vs CoreTime vs bandwidth-aware CoreTime — the paper's
	// with/without comparison plus the saturation-signal variant).
	Policies []KVPolicy

	// DirsPerCore and EntriesPerDir size the dirlookup service's tree:
	// DirsPerCore × cores directories of EntriesPerDir 32-byte entries.
	// The default 14 dirs/core puts AMD16 at 224 directories — the
	// crossover region of Figure 4 — and scales that pressure up with
	// the machine.
	DirsPerCore   int
	EntriesPerDir int
	// Params is the dirlookup measurement template; its Threads field is
	// overwritten per cell with the machine's core count.
	Params RunParams

	// ShardsPerCore and SlotsPerShard size the KV service's store:
	// ShardsPerCore × cores shards of SlotsPerShard 64-byte slots, with
	// one key per slot.
	ShardsPerCore int
	SlotsPerShard int
	// Load is the per-cell KV load template; zero Clients resolves to
	// two per core of the cell's machine.
	Load KVLoad
}

// DefaultScaleConfig returns the full-scale configuration: 16 to 256
// cores, both services, thread scheduler vs CoreTime vs bandwidth-aware
// CoreTime.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		Machines:      []Topology{AMD16, NUMA64, NUMA128, NUMA256},
		Services:      ScaleServices(),
		Policies:      []KVPolicy{KVThreadScheduler, KVCoreTime, CoreTimeBW},
		DirsPerCore:   14,
		EntriesPerDir: 1000,
		Params:        DefaultRunParams(),
		ShardsPerCore: 4,
		SlotsPerShard: 1024,
		Load: KVLoad{
			OpsPerClient: 2000,
			Mix:          KVMix{Gets: 0.55, Scans: 0.40, Puts: 0.05},
			Skew:         0.99,
		},
	}
}

// QuickScaleConfig returns a reduced sweep for smoke tests and CI: the
// 16- and 64-core machines, smaller per-core working sets, shorter
// windows. The divergence shape holds; absolute numbers sit below the
// converged full run.
func QuickScaleConfig() ScaleConfig {
	cfg := DefaultScaleConfig()
	cfg.Machines = []Topology{AMD16, NUMA64}
	cfg.DirsPerCore = 8
	cfg.EntriesPerDir = 250
	cfg.Params.Warmup = 1_500_000
	cfg.Params.Measure = 750_000
	cfg.SlotsPerShard = 128
	cfg.Load.OpsPerClient = 300
	return cfg
}

// scaleServiceAxis builds the service axis. Each value sets the cell's
// whole scenario, sized from Cell.Machine, which is sound because
// ScaleSweep lists the machine axis first and a sweep applies axes in
// listed order.
func scaleServiceAxis(cfg ScaleConfig) Axis {
	vals := make([]AxisValue, len(cfg.Services))
	for i, s := range cfg.Services {
		vals[i] = AxisValue{Label: s.String(), Apply: func(c *Cell) {
			cores := c.Machine.NumCores()
			switch s {
			case ScaleKV:
				c.Scenario = KVScenario{
					Spec: KVSpec{Shards: cfg.ShardsPerCore * cores, SlotsPerShard: cfg.SlotsPerShard, SlotBytes: 64},
					Load: cfg.Load,
				}
			default:
				params := cfg.Params
				params.Threads = cores
				c.Scenario = DirLookupScenario{
					Tree:   DirSpec{Dirs: cfg.DirsPerCore * cores, EntriesPerDir: cfg.EntriesPerDir},
					Params: params,
				}
			}
		}}
	}
	return Axis{Name: "service", Values: vals}
}

// scaleCell is the scale sweep's runner: the cell's scenario's metrics
// plus per_core_kops, its throughput normalized by the machine's core
// count — the column the scaling comparison reads.
func scaleCell(c Cell) (Metrics, error) {
	m, err := c.measure()
	if err != nil {
		return nil, err
	}
	kops, ok := m["kops_per_sec"]
	if !ok {
		kops = m["kres_per_sec"]
	}
	m["per_core_kops"] = kops / float64(c.Machine.orDefault().NumCores())
	return m, nil
}

// ScaleSweep resolves cfg — empty axes take their standard values, zero
// sizing fields their defaults — and returns it with the Sweep that
// measures it, so the returned cfg describes exactly what the cells run.
func ScaleSweep(cfg ScaleConfig) (ScaleConfig, Sweep) {
	if len(cfg.Machines) == 0 {
		cfg.Machines = []Topology{AMD16, NUMA64, NUMA128, NUMA256}
	}
	if len(cfg.Services) == 0 {
		cfg.Services = ScaleServices()
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = []KVPolicy{KVThreadScheduler, KVCoreTime, CoreTimeBW}
	}
	if cfg.DirsPerCore == 0 {
		cfg.DirsPerCore = 14
	}
	if cfg.EntriesPerDir == 0 {
		cfg.EntriesPerDir = 1000
	}
	if cfg.ShardsPerCore == 0 {
		cfg.ShardsPerCore = 4
	}
	if cfg.SlotsPerShard == 0 {
		cfg.SlotsPerShard = 1024
	}
	cfg.Params = cfg.Params.WithDefaults()
	return cfg, Sweep{
		Name: "scale",
		Axes: []Axis{
			// Machine first: the service axis sizes working sets from it.
			TopologyAxis(cfg.Machines...),
			scaleServiceAxis(cfg),
			PolicyAxis(cfg.Policies...),
		},
		Runner: scaleCell,
	}
}

// scaleThroughput returns a cell's throughput: KV cells report
// kops_per_sec, dirlookup cells kres_per_sec. Both are thousands of
// operations per second of simulated time, so rows compare directly.
func scaleThroughput(c *CellResult) Aggregate {
	if a, ok := c.Stats["kops_per_sec"]; ok {
		return a
	}
	return c.Stats["kres_per_sec"]
}

// ScaleColumns report a scale sweep: total throughput (±stddev when the
// sweep carried repeats), per-core throughput, and migrations.
var ScaleColumns = []Column{
	{name: "kops_per_sec", head: "kops/sec", width: 12, csv: 1, spread: "kops_stddev", value: scaleThroughput},
	{name: "per_core_kops", head: "kops/sec/core", width: 14, prec: 1, csv: 2},
	{name: "migrations", head: "migrations", width: 11},
}

// ScaleSpeedup returns the CoreTime-over-thread-scheduler throughput
// ratio at one machine × service point of a completed scale sweep. The
// big-machine claim is this ratio growing with the machine: bandwidth
// saturation punishes the thread scheduler at 64+ cores by a margin that
// does not exist at 16.
func ScaleSpeedup(res *SweepResult, machine, service string) (float64, error) {
	base := res.Cell(machine, service, KVThreadScheduler.String())
	ct := res.Cell(machine, service, KVCoreTime.String())
	if base == nil || ct == nil {
		return 0, fmt.Errorf("o2: scale sweep has no %s/%s policy pair", machine, service)
	}
	b := scaleThroughput(base).Mean
	if b == 0 {
		return 0, fmt.Errorf("o2: scale sweep %s/%s thread-scheduler cell measured zero throughput", machine, service)
	}
	return scaleThroughput(ct).Mean / b, nil
}
