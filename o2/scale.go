package o2

// The scale preset behind `o2bench scale`: the big-machine experiment of
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

// scaleService selects which workload a scale-sweep cell drives. Each
// service sizes its working set per core, so moving along the machine
// axis holds per-core cache pressure constant while total bandwidth
// demand grows with the core count.
type scaleService int

const (
	// scaleDirLookup is the paper's directory-lookup workload with the
	// tree sized per core (scaleConfig.DirsPerCore) and one worker
	// thread per core — Figure 4's experiment stretched along the
	// machine axis.
	scaleDirLookup scaleService = iota
	// scaleKV is the KVService scenario with the shard count sized per
	// core and the load's default two clients per core.
	scaleKV
)

// String returns the service's axis label.
func (s scaleService) String() string {
	if s == scaleKV {
		return "kv"
	}
	return "dirlookup"
}

// scaleConfig drives the scale preset: the cross product of Machines ×
// Services × Policies, with each service's working set sized per core of
// the cell's machine. Seed, repeats, and workers are set on the Sweep
// that scaleSweep returns.
type scaleConfig struct {
	// Machines is the core-count axis, smallest first.
	Machines []Topology
	// Services are the workloads driven at every machine size.
	Services []scaleService
	// Policies are the placement policies compared.
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

// defaultScaleConfig returns the full-scale configuration: 16 to 256
// cores, both services, thread scheduler vs CoreTime — the paper's
// with/without comparison.
func defaultScaleConfig() scaleConfig {
	return scaleConfig{
		Machines:      []Topology{AMD16, numa64, numa128, NUMA256},
		Services:      []scaleService{scaleDirLookup, scaleKV},
		Policies:      []KVPolicy{KVThreadScheduler, KVCoreTime},
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

// quickScaleConfig returns a reduced sweep for smoke tests and CI: the
// 16- and 64-core machines, smaller per-core working sets, shorter
// windows. The divergence shape holds; absolute numbers sit below the
// converged full run.
func quickScaleConfig() scaleConfig {
	cfg := defaultScaleConfig()
	cfg.Machines = []Topology{AMD16, numa64}
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
// scaleSweep lists the machine axis first and a sweep applies axes in
// listed order.
func scaleServiceAxis(cfg scaleConfig) Axis {
	vals := make([]AxisValue, len(cfg.Services))
	for i, s := range cfg.Services {
		vals[i] = AxisValue{Label: s.String(), Apply: func(c *Cell) {
			cores := c.Machine.NumCores()
			switch s {
			case scaleKV:
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

// scaleSweep returns the report title and the Sweep that measures cfg.
func scaleSweep(cfg scaleConfig) (string, Sweep) {
	last := cfg.Machines[len(cfg.Machines)-1]
	title := fmt.Sprintf("Scale: %d machines up to %s (%d cores), per-core working sets",
		len(cfg.Machines), last.Name(), last.NumCores())
	return title, Sweep{
		Name: "scale",
		Axes: []Axis{
			// Machine first: the service axis sizes working sets from it.
			topologyAxis(cfg.Machines...),
			scaleServiceAxis(cfg),
			policyAxis(cfg.Policies...),
		},
		Runner: scaleCell,
	}
}

// throughput returns a cell's throughput: KV and object cells report
// kops_per_sec, directory and path cells kres_per_sec. Both are thousands
// of operations per second of simulated time, so rows compare directly.
func throughput(c *CellResult) Aggregate {
	if a, ok := c.Stats["kops_per_sec"]; ok {
		return a
	}
	return c.Stats["kres_per_sec"]
}

// scaleColumns report a scale sweep: total throughput (±stddev when the
// sweep carried repeats), per-core throughput, and migrations.
var scaleColumns = []column{
	{name: "kops_per_sec", head: "kops/sec", width: 12, csv: 1, spread: "kops_stddev", value: throughput},
	{name: "per_core_kops", head: "kops/sec/core", width: 14, prec: 1, csv: 2},
	{name: "migrations", head: "migrations", width: 11},
}
