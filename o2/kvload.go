package o2

// The KVService load generator: deterministic, closed-loop, and seeded
// through the same SplitMix64 scheme as everything else in the
// repository.
//
// Determinism contract (pinned by the kv preset golden test): one run is
// a pure function of (topology, options, KVSpec, KVLoad, seed). The
// generator owns no global state — a master RNG seeded from KVLoad.Seed
// (or derived from the runtime seed) splits one private stream per
// client, and key popularity comes from a shared Zipf table that holds no
// generator state. Worker counts, host CPU counts, and wall-clock time
// can not reach any of it.

import (
	"fmt"
	"math"
)

// kvSeedStratum decorrelates the KV load generator's derived seed from
// other streams derived from the same runtime seed ("kv" in ASCII).
const kvSeedStratum = 0x6b76

// defaultKVOpsPerClient is the closed-loop operation count per client.
const defaultKVOpsPerClient = 2000

// KVMix is the operation mix of a KV load: relative weights of point
// gets, full-shard scans, and point puts. Weights are normalized, so
// {Gets: 59, Scans: 40, Puts: 1} and {0.59, 0.40, 0.01} are the same mix.
type KVMix struct {
	Gets  float64
	Scans float64
	Puts  float64
}

// DefaultKVMix returns the scenario's standard mix: read-mostly with a
// heavy scan component and occasional writes.
func DefaultKVMix() KVMix { return KVMix{Gets: 0.59, Scans: 0.40, Puts: 0.01} }

func (m KVMix) validate() error {
	for _, w := range []float64{m.Gets, m.Scans, m.Puts} {
		// NaN must be rejected explicitly: it fails every comparison, so
		// it would sail through the sign and sum checks and then turn the
		// whole load into gets (NaN thresholds compare false).
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return fmt.Errorf("o2: KVMix weights must be finite and non-negative, got %+v", m)
		}
	}
	if m.Gets+m.Scans+m.Puts <= 0 {
		return fmt.Errorf("o2: KVMix weights sum to zero")
	}
	return nil
}

// normalized returns the mix scaled to sum to 1.
func (m KVMix) normalized() KVMix {
	sum := m.Gets + m.Scans + m.Puts
	return KVMix{Gets: m.Gets / sum, Scans: m.Scans / sum, Puts: m.Puts / sum}
}

// Label renders the mix as a compact axis label ("g59s40p1": percentages
// of gets, scans, puts).
func (m KVMix) Label() string {
	n := m.normalized()
	return fmt.Sprintf("g%.0fs%.0fp%.0f", n.Gets*100, n.Scans*100, n.Puts*100)
}

// KVLoad drives one closed-loop measurement of a KVService: Clients green
// threads (spread round-robin over the cores) each issue OpsPerClient
// operations back to back, drawing keys from a Zipf(Skew) popularity
// distribution over the store's key space and picking the operation kind
// from Mix.
type KVLoad struct {
	// Clients is the closed-loop client thread count; 0 means two per
	// core. A loaded service has more sessions than cores, and the
	// oversubscription matters to the physics: with threads queued on
	// every core, a migrating thread's travel time overlaps with another
	// thread's work instead of idling its core.
	Clients int
	// OpsPerClient is how many operations each client issues (default
	// 2000).
	OpsPerClient int
	// Mix selects the get/scan/put ratio; the zero mix means
	// DefaultKVMix.
	Mix KVMix
	// Skew is the Zipf popularity parameter over the key space; 0 is
	// uniform, 0.99 the classic skewed service workload.
	Skew float64
	// Seed seeds the load's master RNG; 0 derives one from the runtime
	// seed.
	Seed uint64
}

// DefaultKVLoad returns the standard load: two clients per core, 2000
// ops each, the default mix, classic Zipf skew.
func DefaultKVLoad() KVLoad {
	return KVLoad{OpsPerClient: defaultKVOpsPerClient, Mix: DefaultKVMix(), Skew: 0.99}
}

// WithDefaults returns the load with zero fields filled in (Clients
// resolves against cores; Skew 0 is a legitimate uniform configuration
// and is left alone).
func (l KVLoad) WithDefaults(cores int) KVLoad {
	if l.Clients == 0 {
		l.Clients = 2 * cores
	}
	if l.OpsPerClient == 0 {
		l.OpsPerClient = defaultKVOpsPerClient
	}
	if l.Mix == (KVMix{}) {
		l.Mix = DefaultKVMix()
	}
	return l
}

// KVResult is one measured KV load run.
type KVResult struct {
	// Ops is the total operations issued (Clients × OpsPerClient).
	Ops uint64
	// Clients is the resolved client thread count.
	Clients int
	// Elapsed is the simulated time from the drive's start until the last
	// client finished.
	Elapsed Cycles
	// Scheduler names the policy the runtime ran under.
	Scheduler string

	// KOpsPerSec is the store's throughput: thousands of operations per
	// second of simulated time.
	KOpsPerSec float64
	// CyclesPerOp is the mean per-operation latency one closed-loop
	// client observed: Elapsed ÷ OpsPerClient.
	CyclesPerOp float64
	// CacheHitRate is the fraction of memory accesses served on-chip
	// (anywhere in the accessing core's L1/L2/L3) rather than from a
	// remote cache or DRAM.
	CacheHitRate float64
	// RemoteFetches and DRAMLoads are the off-chip access counts behind
	// CacheHitRate.
	RemoteFetches uint64
	DRAMLoads     uint64
	// Migrations counts thread migrations during the run (0 under the
	// baseline thread scheduler).
	Migrations uint64
}

// Run drives the load against the store and measures it. The runtime must
// not have other threads pending: Run drives the simulation to
// completion.
func (s *KVService) Run(load KVLoad) (KVResult, error) {
	rt := s.rt
	load = load.WithDefaults(rt.NumCores())
	if load.Clients < 0 || load.OpsPerClient < 0 {
		return KVResult{}, fmt.Errorf("o2: KVLoad counts must be non-negative (0 means default), got %+v", load)
	}
	if err := load.Mix.validate(); err != nil {
		return KVResult{}, err
	}
	zipf, err := s.zipf.get(s.spec.Keys, load.Skew)
	if err != nil {
		return KVResult{}, err
	}
	mix := load.Mix.normalized()
	pPut := mix.Puts
	pPutScan := mix.Puts + mix.Scans

	seed := load.Seed
	if seed == 0 {
		seed = DeriveSeed(rt.Seed(), kvSeedStratum)
	}
	master := NewRNG(seed)
	homes := RoundRobin(load.Clients, rt.NumCores())

	start := rt.Now()
	before := rt.mach.Counters().Total()
	var done Time
	for w := 0; w < load.Clients; w++ {
		rng := master.Split()
		rt.Go(fmt.Sprintf("kv client %d", w), homes[w], func(t *Thread) {
			for i := 0; i < load.OpsPerClient; i++ {
				r := rng.Float64()
				switch {
				case r < pPut:
					key := uint64(zipf.Next(rng))
					op := t.Begin(s.shards[s.ShardOf(key)])
					s.Put(t, key)
					op.End()
				case r < pPutScan:
					// Range scans read the partition holding a drawn key
					// (a hot user's data), so scan traffic follows the
					// same popularity skew as point traffic.
					shard := s.ShardOf(uint64(zipf.Next(rng)))
					op := t.BeginRO(s.shards[shard])
					s.Scan(t, shard)
					op.End()
				default:
					key := uint64(zipf.Next(rng))
					op := t.BeginRO(s.shards[s.ShardOf(key)])
					s.Get(t, key)
					op.End()
				}
				t.Yield()
			}
			if t.Now() > done {
				done = t.Now()
			}
		})
	}
	rt.Run()

	delta := rt.mach.Counters().Total().Sub(before)
	elapsed := Cycles(done - start)
	ops := uint64(load.Clients) * uint64(load.OpsPerClient)
	res := KVResult{
		Ops:           ops,
		Clients:       load.Clients,
		Elapsed:       elapsed,
		Scheduler:     rt.SchedulerName(),
		RemoteFetches: delta.RemoteFetches,
		DRAMLoads:     delta.DRAMLoads,
		Migrations:    delta.MigrationsIn,
	}
	if elapsed > 0 {
		seconds := float64(elapsed) / rt.ClockHz()
		res.KOpsPerSec = float64(ops) / seconds / 1000
		res.CyclesPerOp = float64(elapsed) / float64(load.OpsPerClient)
	}
	if acc := delta.Loads + delta.Stores; acc > 0 {
		res.CacheHitRate = 1 - float64(delta.RemoteFetches+delta.DRAMLoads)/float64(acc)
	}
	return res, nil
}
