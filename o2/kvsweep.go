package o2

// Sweep integration for the KVService scenario: shard-placement policies
// as option bundles, the Mix/Skew/Policy axes, the KVScenario cell
// workload, and the kv preset's configuration and sweep.

import (
	"fmt"
	"strconv"
)

// kvMissThreshold lowers CoreTime's expensive-to-fetch bar for the KV
// scenario: point operations touch a handful of lines, far fewer than a
// directory scan, so the default threshold would never see a shard as
// placement-worthy.
const kvMissThreshold = 3

// Replication qualification under the KV scenario: a shard becomes
// replica-eligible after this many read-only operations at this read
// ratio (§6.2).
const (
	kvReplicateMinOps    = 24
	kvReplicateReadRatio = 0.90
)

// KVPolicy is a shard-placement policy of the KVService scenario: a named
// bundle of runtime options selecting the scheduler (the sched.Annotator
// underneath) and its tuning. The four policies span the design space the
// paper argues over:
//
//   - KVThreadScheduler: the traditional baseline. Clients stay on their
//     static round-robin home cores; shards live wherever the hardware
//     caches happen to pull them.
//   - KVHashAffinity: consistent-hashing placement. Each shard is pinned
//     to a fixed core by hashing its address and operations migrate
//     there — what a conventional sharded service deploys, with no
//     monitoring or rebalancing.
//   - KVCoreTime: the paper's object scheduler places hot shards into
//     caches and migrates threads to them.
//   - KVCoreTimeReplicated: CoreTime plus the §6.2 read-only replication
//     extension, giving each chip its own copy of hot read-mostly shards
//     instead of funneling every read through one core.
//   - CoreTimeBW: CoreTime reading the bandwidth-stall counters — the
//     monitor spreads placed objects off sockets whose memory controller
//     or interconnect port is saturated and refuses new placements onto
//     them. (No KV prefix: the bundle is not KV-specific; it rides any
//     Policy axis, notably the scale sweep.)
type KVPolicy int

const (
	KVThreadScheduler KVPolicy = iota
	KVHashAffinity
	KVCoreTime
	KVCoreTimeReplicated
	CoreTimeBW
)

// KVPolicies returns all placement policies in comparison order.
func KVPolicies() []KVPolicy {
	return []KVPolicy{KVThreadScheduler, KVHashAffinity, KVCoreTime, KVCoreTimeReplicated, CoreTimeBW}
}

// String returns the policy's report name, used as its axis label.
func (p KVPolicy) String() string {
	switch p {
	case KVThreadScheduler:
		return "thread-scheduler"
	case KVHashAffinity:
		return "hash-affinity"
	case KVCoreTime:
		return "coretime"
	case KVCoreTimeReplicated:
		return "coretime+repl"
	case CoreTimeBW:
		return "coretime-bw"
	default:
		return fmt.Sprintf("kvpolicy(%d)", int(p))
	}
}

// Scheduler returns the Scheduler value the policy runs under.
func (p KVPolicy) Scheduler() Scheduler {
	switch p {
	case KVHashAffinity:
		return Affinity
	case KVCoreTime, KVCoreTimeReplicated, CoreTimeBW:
		return CoreTime
	default:
		return Baseline
	}
}

// Options returns the runtime options implementing the policy.
func (p KVPolicy) Options() []Option {
	opts := []Option{WithScheduler(p.Scheduler())}
	switch p {
	case KVCoreTime:
		opts = append(opts, WithMissThreshold(kvMissThreshold))
	case KVCoreTimeReplicated:
		opts = append(opts,
			WithMissThreshold(kvMissThreshold),
			withReplication(true),
			withReplicationThreshold(kvReplicateMinOps, kvReplicateReadRatio),
		)
	case CoreTimeBW:
		opts = append(opts,
			WithMissThreshold(kvMissThreshold),
			withBandwidthAware(),
		)
	}
	return opts
}

// policyAxis sweeps over shard-placement policies. Each value installs
// the policy's options and sets Cell.Scheduler, so the one precedence
// rule every scenario shares — Cell.Scheduler is authoritative, applied
// after Options — holds for policy sweeps too.
func policyAxis(policies ...KVPolicy) Axis {
	vals := make([]AxisValue, len(policies))
	for i, p := range policies {
		vals[i] = AxisValue{
			Label: p.String(),
			Apply: func(c *Cell) {
				c.Scheduler = p.Scheduler()
				c.Options = append(c.Options, p.Options()...)
			},
		}
	}
	return Axis{Name: "policy", Values: vals}
}

// mixAxis sweeps over operation mixes.
func mixAxis(mixes ...KVMix) Axis {
	vals := make([]AxisValue, len(mixes))
	for i, m := range mixes {
		vals[i] = AxisValue{Label: m.Label(), Apply: editScenario("mix", func(s *KVScenario) { s.Load.Mix = m })}
	}
	return Axis{Name: "mix", Values: vals}
}

// skewAxis sweeps the Zipf popularity skew of the key stream.
func skewAxis(skews ...float64) Axis {
	vals := make([]AxisValue, len(skews))
	for i, s := range skews {
		vals[i] = AxisValue{
			Label: strconv.FormatFloat(s, 'g', -1, 64),
			Apply: editScenario("skew", func(sc *KVScenario) { sc.Load.Skew = s }),
		}
	}
	return Axis{Name: "skew", Values: vals}
}

// KVScenario is the KV scenario as a sweep cell's workload: the store
// Spec is built once per cell and driven by Load. The cell seed reaches
// both the runtime (every internal stream) and the load generator, so
// results are a pure function of the grid position — the worker-count
// invariance the kv preset golden test pins.
type KVScenario struct {
	Spec KVSpec
	Load KVLoad
}

func (s KVScenario) measure(c Cell) (Metrics, error) {
	svc, err := scenarioForCell(c, func(rt *Runtime) (*KVService, error) {
		return rt.NewKVService(s.Spec)
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
		"kops_per_sec":   res.KOpsPerSec,
		"cycles_per_op":  res.CyclesPerOp,
		"cache_hit_rate": res.CacheHitRate,
		"migrations":     float64(res.Migrations),
	}, nil
}

// kvConfig drives the kv preset: the cross product of Mixes × Skews ×
// Policies on one machine and store shape. Seed, repeats, and workers are
// set on the Sweep that kvSweep returns.
type kvConfig struct {
	Machine Topology
	// Spec shapes the store.
	Spec KVSpec
	// Load is the per-cell load template; Mixes and Skews sweep its mix
	// and skew. Its zero fields resolve per cell against the machine's
	// core count.
	Load     KVLoad
	Mixes    []KVMix
	Skews    []float64
	Policies []KVPolicy
}

// defaultKVConfig returns the full-scale configuration: the AMD16 machine
// serving a million-key store under read-heavy and scan-heavy mixes at
// uniform and classic-Zipf skew, across all placement policies.
func defaultKVConfig() kvConfig {
	return kvConfig{
		Machine: AMD16,
		Spec:    KVSpec{Shards: 64, SlotsPerShard: 1024, SlotBytes: 64, Keys: 1 << 20},
		Load:    KVLoad{OpsPerClient: 2000},
		Mixes: []KVMix{
			{Gets: 0.95, Scans: 0.04, Puts: 0.01}, // point-read heavy
			{Gets: 0.55, Scans: 0.40, Puts: 0.05}, // scan heavy
		},
		Skews:    []float64{0, 0.99},
		Policies: KVPolicies(),
	}
}

// quickKVConfig returns a reduced sweep for smoke tests: the Tiny8
// machine and a kilobyte-scale store, same axes.
func quickKVConfig() kvConfig {
	cfg := defaultKVConfig()
	cfg.Machine = Tiny8
	cfg.Spec = KVSpec{Shards: 16, SlotsPerShard: 128, SlotBytes: 64, Keys: 1 << 16}
	cfg.Load.OpsPerClient = 500
	return cfg
}

// kvSweep returns the report title and the Sweep that measures cfg.
func kvSweep(cfg kvConfig) (string, Sweep) {
	title := fmt.Sprintf("KVService: sharded key-value store on %s (%d shards × %d KB, %d keys)",
		cfg.Machine.Name(), cfg.Spec.Shards, cfg.Spec.ShardBytes()/1024, cfg.Spec.Keys)
	return title, Sweep{
		Name: "kv",
		Base: Cell{Machine: cfg.Machine, Scenario: KVScenario{Spec: cfg.Spec, Load: cfg.Load}},
		Axes: []Axis{mixAxis(cfg.Mixes...), skewAxis(cfg.Skews...), policyAxis(cfg.Policies...)},
	}
}

// kvColumns report a KV sweep: throughput (±stddev when the sweep carried
// repeats), per-op latency, on-chip cache-hit rate, and migrations.
var kvColumns = []column{
	{name: "kops_per_sec", head: "kops/sec", width: 12, csv: 1, spread: "kops_stddev"},
	{name: "cycles_per_op", head: "cycles/op", width: 12, csv: 1},
	{name: "cache_hit_rate", head: "hit%", width: 8, prec: 1, csv: 4, pct: true},
	{name: "migrations", head: "migrations", width: 11},
}
