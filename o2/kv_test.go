package o2

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

// kvTestSpec is the Tiny8-scale store the tests measure: 16 shards of
// 8 KB under a 64 K-entry key space.
func kvTestSpec() KVSpec {
	return KVSpec{Shards: 16, SlotsPerShard: 128, SlotBytes: 64, Keys: 1 << 16}
}

// kvScanHeavySkewed is the scenario's headline cell: 40% full-shard
// scans, Zipf-0.99 key popularity, oversubscribed closed-loop clients.
func kvScanHeavySkewed() KVLoad {
	return KVLoad{
		Clients:      16,
		OpsPerClient: 600,
		Mix:          KVMix{Gets: 0.59, Scans: 0.40, Puts: 0.01},
		Skew:         0.99,
		Seed:         42,
	}
}

func runKVPolicy(t *testing.T, p KVPolicy, spec KVSpec, load KVLoad) KVResult {
	t.Helper()
	rt, err := New(append([]Option{WithTopology(Tiny8), WithSeed(42)}, p.Options()...)...)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := rt.NewKVService(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run(load)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestKVReplicationBeatsBaselineOnScanHeavySkewed asserts the scenario's
// acceptance criterion: on the scan-heavy, Zipf-skewed cell the
// CoreTime + read-only-replication policy outperforms the traditional
// thread scheduler — the paper's §6.2 argument measured on a service
// workload instead of the fatfs microbenchmark. The simulation is
// deterministic, so the margin is stable; the 10% floor just keeps the
// assertion meaningful.
func TestKVReplicationBeatsBaselineOnScanHeavySkewed(t *testing.T) {
	spec, load := kvTestSpec(), kvScanHeavySkewed()
	base := runKVPolicy(t, KVThreadScheduler, spec, load)
	repl := runKVPolicy(t, KVCoreTimeReplicated, spec, load)

	if repl.KOpsPerSec < base.KOpsPerSec*1.10 {
		t.Errorf("coretime+replication %.0f kops/s does not beat thread scheduler %.0f kops/s by 10%%",
			repl.KOpsPerSec, base.KOpsPerSec)
	}
	// The mechanism, not just the outcome: replication serves shards
	// on-chip (hit rate way up) at the price of migrations the baseline
	// never pays.
	if repl.CacheHitRate < base.CacheHitRate+0.2 {
		t.Errorf("replication hit rate %.3f not clearly above baseline %.3f", repl.CacheHitRate, base.CacheHitRate)
	}
	if base.Migrations != 0 {
		t.Errorf("thread scheduler migrated %d times; baseline must never migrate", base.Migrations)
	}
	if repl.Migrations == 0 {
		t.Error("coretime+replication recorded no migrations; the policy is not engaging")
	}
}

// TestKVCoreTimeBeatsBaselineOnScanHeavySkewed pins the plain-CoreTime
// ordering on the same cell, so the sweep's policy story (baseline <
// replication <= coretime family) stays anchored.
func TestKVCoreTimeBeatsBaselineOnScanHeavySkewed(t *testing.T) {
	spec, load := kvTestSpec(), kvScanHeavySkewed()
	base := runKVPolicy(t, KVThreadScheduler, spec, load)
	ct := runKVPolicy(t, KVCoreTime, spec, load)
	if ct.KOpsPerSec < base.KOpsPerSec*1.10 {
		t.Errorf("coretime %.0f kops/s does not beat thread scheduler %.0f kops/s by 10%%",
			ct.KOpsPerSec, base.KOpsPerSec)
	}
}

// TestKVSlotAddressingRegression is the regression test for the kvstore
// example's addressing bug: its slotAddr used (key/shards)%slots, which
// collapses every key below the shard count onto slot 0 — with
// shards >= slots an entire dense key range crowds into one slot per
// shard, so every get and put of distinct keys hammers one cache line.
// The KVService addressing must spread those same key streams.
func TestKVSlotAddressingRegression(t *testing.T) {
	spec := KVSpec{Shards: 64, SlotsPerShard: 32, SlotBytes: 64, Keys: 1 << 16} // shards >= slots
	rt := MustNew(WithTopology(Tiny8))
	svc, err := rt.NewKVService(spec)
	if err != nil {
		t.Fatal(err)
	}

	oldSlot := func(key uint64) int {
		return int(key / uint64(spec.Shards) % uint64(spec.SlotsPerShard))
	}
	oldSeen := map[int]bool{}
	newSeen := map[int]bool{}
	for key := uint64(0); key < uint64(spec.Shards); key++ { // dense keys, one per shard
		oldSeen[oldSlot(key)] = true
		newSeen[svc.SlotOf(key)] = true
	}
	if len(oldSeen) != 1 {
		t.Fatalf("premise: old formula spread %d slots, expected the slot-0 collapse", len(oldSeen))
	}
	if len(newSeen) < spec.SlotsPerShard/2 {
		t.Errorf("SlotOf spread a dense key range over only %d/%d slots", len(newSeen), spec.SlotsPerShard)
	}

	// And the addresses the machine actually touches are distinct slots,
	// not one line: distinct keys of one shard must hit multiple addresses.
	addrs := map[Addr]bool{}
	for i := 0; i < 32; i++ {
		key := uint64(i * spec.Shards) // all map to shard 0
		addrs[svc.SlotAddr(key)] = true
	}
	if len(addrs) < 8 {
		t.Errorf("32 distinct shard-0 keys mapped to %d slot addresses; expected a spread", len(addrs))
	}
}

// TestKVServiceAddressingProperties checks the service-level addressing
// contract with testing/quick: every key's slot address stays inside its
// shard's object, shards balance dense ranges within one, and the slot
// chosen for a key survives shard-count changes.
func TestKVServiceAddressingProperties(t *testing.T) {
	rt := MustNew(WithTopology(small4))
	specA := KVSpec{Shards: 8, SlotsPerShard: 16, SlotBytes: 64, Keys: 1 << 12}
	specB := KVSpec{Shards: 24, SlotsPerShard: 16, SlotBytes: 64, Keys: 1 << 12}
	svcA, err := rt.NewKVService(specA)
	if err != nil {
		t.Fatal(err)
	}
	rtB := MustNew(WithTopology(small4))
	svcB, err := rtB.NewKVService(specB)
	if err != nil {
		t.Fatal(err)
	}

	f := func(key uint64) bool {
		shard := svcA.ShardOf(key)
		if shard < 0 || shard >= specA.Shards {
			return false
		}
		slot := svcA.SlotOf(key)
		if slot < 0 || slot >= specA.SlotsPerShard {
			return false
		}
		obj := svcA.Shard(shard)
		addr := svcA.SlotAddr(key)
		if addr < obj.Addr(0) || addr+Addr(specA.SlotBytes) > obj.Addr(obj.Size()) {
			return false
		}
		// Same slot table size, different shard count: the slot must not
		// move.
		return svcB.SlotOf(key) == slot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestKVRunDeterminism: identical seeds give byte-identical results;
// different seeds actually vary the run.
func TestKVRunDeterminism(t *testing.T) {
	load := kvScanHeavySkewed()
	load.Clients = 8
	load.OpsPerClient = 200
	run := func(seed uint64) KVResult {
		rt := MustNew(WithTopology(Tiny8), WithSeed(seed))
		svc, err := rt.NewKVService(kvTestSpec())
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

// TestKVRunReusesZipfTable pins the process's Zipf memo on a fresh memo:
// two KV services on separate runtimes, at one key space and skew, share
// one table; another skew gets a table of its own; skew 0 memoizes
// nothing; eight goroutines asking for one new shape at once get one
// table; and a full memo evicts its oldest table.
func TestKVRunReusesZipfTable(t *testing.T) {
	defer func(old *zipfMemo) { zipfs = old }(zipfs)
	zipfs = &zipfMemo{}
	load := kvScanHeavySkewed()
	load.Clients, load.OpsPerClient = 4, 20
	run := func(l KVLoad) {
		t.Helper()
		rt := MustNew(WithTopology(Tiny8), WithSeed(7))
		svc, err := rt.NewKVService(kvTestSpec())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Run(l); err != nil {
			t.Fatal(err)
		}
	}
	run(load)
	if len(zipfs.tables) != 1 {
		t.Fatalf("one skewed run memoized %d tables, want 1", len(zipfs.tables))
	}
	first := zipfs.tables[0]
	run(load)
	if len(zipfs.tables) != 1 || zipfs.tables[0] != first {
		t.Error("a second service at the same shape did not reuse the first one's Zipf table")
	}
	load.Skew = 0.5
	run(load)
	if len(zipfs.tables) != 2 || zipfs.tables[0] != first || zipfs.tables[1].Skew() != 0.5 {
		t.Errorf("a run at skew 0.5 did not add its own table: %d tables", len(zipfs.tables))
	}
	load.Skew = 0
	run(load)
	if len(zipfs.tables) != 2 {
		t.Errorf("a run at skew 0 memoized a table: %d tables", len(zipfs.tables))
	}

	got := make([]*workload.Zipf, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z, err := zipfs.get(1<<12, 1.2)
			if err != nil {
				t.Error(err)
			}
			got[i] = z
		}()
	}
	wg.Wait()
	for i, z := range got {
		if z == nil || z != got[0] {
			t.Fatalf("goroutine %d got table %p, goroutine 0 got %p", i, z, got[0])
		}
	}
	if len(zipfs.tables) != 3 {
		t.Errorf("eight racing callers of one shape left %d tables, want 3", len(zipfs.tables))
	}

	for skew := 2.0; len(zipfs.tables) < zipfShapes; skew++ {
		if _, err := zipfs.get(16, skew); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := zipfs.get(16, 9); err != nil {
		t.Fatal(err)
	}
	if len(zipfs.tables) != zipfShapes || slices.Contains(zipfs.tables, first) {
		t.Errorf("a full memo kept %d tables and its oldest: %v", len(zipfs.tables), slices.Contains(zipfs.tables, first))
	}
}

// TestKVSweepWorkerInvariance runs a small policy×skew grid at one and
// many workers: the SweepResults must be deeply identical, the KV
// instance of the engine's determinism guarantee.
func TestKVSweepWorkerInvariance(t *testing.T) {
	cfg := quickKVConfig()
	cfg.Spec = KVSpec{Shards: 8, SlotsPerShard: 64, SlotBytes: 64, Keys: 1 << 12}
	cfg.Load = KVLoad{Clients: 8, OpsPerClient: 120}
	cfg.Mixes = []KVMix{defaultKVMix()}
	cfg.Skews = []float64{0, 0.99}
	cfg.Policies = []KVPolicy{KVThreadScheduler, KVCoreTime}

	run := func(workers int) *SweepResult {
		_, sweep := kvSweep(cfg)
		sweep.Seed, sweep.Workers = 5, workers
		res, err := sweep.Run()
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
		for _, m := range []string{"kops_per_sec", "cycles_per_op", "cache_hit_rate", "migrations"} {
			if a.Stats[m] != b.Stats[m] {
				t.Errorf("cell %d %v metric %s differs across worker counts: %+v vs %+v",
					i, a.Labels, m, a.Stats[m], b.Stats[m])
			}
		}
	}
}

// TestKVSpecDefaultsAndValidation covers the spec's defaulting and
// rejection paths.
func TestKVSpecDefaultsAndValidation(t *testing.T) {
	d := KVSpec{}.WithDefaults()
	if d.Shards != 16 || d.SlotsPerShard != 128 || d.SlotBytes != 64 || d.Keys != 16*128 {
		t.Errorf("unexpected defaults: %+v", d)
	}
	rt := MustNew(WithTopology(small4))
	if _, err := rt.NewKVService(KVSpec{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := rt.NewKVService(KVSpec{Keys: -5}); err == nil {
		t.Error("negative key count accepted")
	}
}

// TestKVLoadValidation covers the load generator's rejection paths.
func TestKVLoadValidation(t *testing.T) {
	rt := MustNew(WithTopology(small4))
	svc, err := rt.NewKVService(KVSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Run(KVLoad{Mix: KVMix{Gets: -1, Scans: 2, Puts: 0}, OpsPerClient: 1}); err == nil {
		t.Error("negative mix weight accepted")
	}
	if _, err := svc.Run(KVLoad{Mix: KVMix{Gets: math.NaN(), Scans: 1, Puts: 0}, OpsPerClient: 1}); err == nil {
		t.Error("NaN mix weight accepted; it would silently run as 100% gets")
	}
	if _, err := svc.Run(KVLoad{Mix: KVMix{Gets: math.Inf(1), Scans: 1, Puts: 0}, OpsPerClient: 1}); err == nil {
		t.Error("infinite mix weight accepted")
	}
	if _, err := svc.Run(KVLoad{Skew: -0.5, OpsPerClient: 1}); err == nil {
		t.Error("negative skew accepted")
	}
	if _, err := svc.Run(KVLoad{Clients: -2}); err == nil {
		t.Error("negative client count accepted")
	}
}

// TestKVMixLabels pins the axis labels sweep cells are addressed by.
func TestKVMixLabels(t *testing.T) {
	cases := []struct {
		mix  KVMix
		want string
	}{
		{KVMix{Gets: 0.59, Scans: 0.40, Puts: 0.01}, "g59s40p1"},
		{KVMix{Gets: 59, Scans: 40, Puts: 1}, "g59s40p1"}, // normalization
		{KVMix{Gets: 1}, "g100s0p0"},
	}
	for _, tc := range cases {
		if got := tc.mix.Label(); got != tc.want {
			t.Errorf("Label(%+v) = %q, want %q", tc.mix, got, tc.want)
		}
	}
}

// TestKVPolicyOptionsSelectSchedulers checks each policy builds a runtime
// under the scheduler it names.
func TestKVPolicyOptionsSelectSchedulers(t *testing.T) {
	want := map[KVPolicy]Scheduler{
		KVThreadScheduler:    Baseline,
		KVHashAffinity:       Affinity,
		KVCoreTime:           CoreTime,
		KVCoreTimeReplicated: CoreTime,
		CoreTimeBW:           CoreTime,
	}
	for p, sched := range want {
		rt, err := New(append([]Option{WithTopology(small4)}, p.Options()...)...)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if rt.Scheduler() != sched {
			t.Errorf("%v built scheduler %v, want %v", p, rt.Scheduler(), sched)
		}
	}
}

// TestAffinitySchedulerRuns drives a tiny load under the hash-affinity
// scheduler end to end through the façade.
func TestAffinitySchedulerRuns(t *testing.T) {
	rt := MustNew(WithTopology(Tiny8), WithScheduler(Affinity), WithSeed(3))
	svc, err := rt.NewKVService(KVSpec{Shards: 8, SlotsPerShard: 32, SlotBytes: 64, Keys: 256})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run(KVLoad{Clients: 8, OpsPerClient: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != "hash-affinity" {
		t.Errorf("scheduler name %q", res.Scheduler)
	}
	if res.Ops != 800 || res.KOpsPerSec <= 0 {
		t.Errorf("implausible result: %+v", res)
	}
	if res.Migrations == 0 {
		t.Error("hash affinity never migrated; annotator not engaged")
	}
}
