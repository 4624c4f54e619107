package o2

import (
	"fmt"
	"math"
	"testing"
)

// TestScaleSweepDivergence pins the big-machine claim the scale sweep
// exists to measure: on the dirlookup service with the working set sized
// per core, CoreTime's speedup over the thread scheduler is decisively
// larger on a 64-core NUMA machine — where the thread scheduler's
// uniform sweeps saturate the per-socket memory controllers — than on
// the paper's 16-core machine, where bandwidth never binds. The sweep is
// deterministic, so the margins can be tight.
func TestScaleSweepDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := quickScaleConfig()
	cfg.Services = []scaleService{scaleDirLookup}
	_, sweep := scaleSweep(cfg)
	res, err := sweep.Run()
	if err != nil {
		t.Fatal(err)
	}
	small, err := scaleSpeedup(res, "amd16", "dirlookup")
	if err != nil {
		t.Fatal(err)
	}
	big, err := scaleSpeedup(res, "numa64", "dirlookup")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("CoreTime speedup: amd16 %.3f, numa64 %.3f", small, big)
	if big <= 1.1 {
		t.Errorf("CoreTime speedup on numa64 = %.3f, want > 1.1 (bandwidth saturation should bind)", big)
	}
	if big < small+0.2 {
		t.Errorf("speedup margin numa64 %.3f vs amd16 %.3f: want the NUMA machine ahead by > 0.2", big, small)
	}
	// The per-core view of the same divergence: the thread scheduler's
	// per-core throughput must collapse going 16 → 64 cores while
	// CoreTime's holds (stays within 30% of its 16-core value).
	basePerCore := func(machine string) float64 {
		c := res.Cell(machine, "dirlookup", KVThreadScheduler.String())
		return c.Mean("per_core_kops")
	}
	ctPerCore := func(machine string) float64 {
		c := res.Cell(machine, "dirlookup", KVCoreTime.String())
		return c.Mean("per_core_kops")
	}
	if got, was := basePerCore("numa64"), basePerCore("amd16"); got > 0.7*was {
		t.Errorf("thread-scheduler per-core throughput %.1f at numa64 vs %.1f at amd16: expected a collapse (< 70%%)", got, was)
	}
	if got, was := ctPerCore("numa64"), ctPerCore("amd16"); got < 0.7*was {
		t.Errorf("CoreTime per-core throughput %.1f at numa64 vs %.1f at amd16: expected it to hold (>= 70%%)", got, was)
	}
}

// TestScaleCellNormalizes checks the scale runner's per-core metric: a
// dirlookup cell and a KV cell both report per_core_kops equal to their
// primary throughput divided by the machine's core count.
func TestScaleCellNormalizes(t *testing.T) {
	p := DefaultRunParams()
	p.Threads = 8
	p.Warmup = 100_000
	p.Measure = 200_000

	dir := Cell{
		Machine:  Tiny8,
		Scenario: DirLookupScenario{Tree: DirSpec{Dirs: 16, EntriesPerDir: 64}, Params: p},
		Seed:     5,
	}
	m, err := scaleCell(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m["kres_per_sec"]; !ok {
		t.Fatalf("dirlookup cell reported no kres_per_sec: %v", m)
	}
	if want := m["kres_per_sec"] / 8; math.Abs(m["per_core_kops"]-want) > 1e-9 {
		t.Errorf("per_core_kops = %v, want %v", m["per_core_kops"], want)
	}

	kv := Cell{
		Machine: Tiny8,
		Scenario: KVScenario{
			Spec: KVSpec{Shards: 8, SlotsPerShard: 32, SlotBytes: 64},
			Load: KVLoad{Clients: 8, OpsPerClient: 50},
		},
		Seed: 5,
	}
	m, err = scaleCell(kv)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m["kops_per_sec"]; !ok {
		t.Fatalf("kv cell reported no kops_per_sec: %v", m)
	}
	if want := m["kops_per_sec"] / 8; math.Abs(m["per_core_kops"]-want) > 1e-9 {
		t.Errorf("per_core_kops = %v, want %v", m["per_core_kops"], want)
	}
}

// TestScaleArenaRepeatsMatchFreshRuns extends the arena's
// behavior-transparency pin to the big machines: on a NUMA topology
// whose saturating bandwidth meters accumulate queueing state, repeats
// that reuse the cell's runtime through an arena reset must still
// produce exactly the metrics a fresh, arena-free run at the same seed
// produces — i.e. Reset returns every meter to its built state.
func TestScaleArenaRepeatsMatchFreshRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := quickScaleConfig()
	cfg.Machines = []Topology{numa64}
	cfg.Policies = []KVPolicy{KVCoreTime}
	cfg.Params.Warmup = 300_000
	cfg.Params.Measure = 300_000
	cfg.Load.OpsPerClient = 60

	_, sweep := scaleSweep(cfg)
	sweep.Repeats = 3
	sweep.Workers = 1
	sweep.Seed = 23
	checkRepeatsMatchFresh(t, sweep)
}

// scaleSpeedup returns the CoreTime-over-thread-scheduler throughput
// ratio at one machine × service point of a completed scale sweep. The
// big-machine claim is this ratio growing with the machine: bandwidth
// saturation punishes the thread scheduler at 64+ cores by a margin that
// does not exist at 16.
func scaleSpeedup(res *SweepResult, machine, service string) (float64, error) {
	base := res.Cell(machine, service, KVThreadScheduler.String())
	ct := res.Cell(machine, service, KVCoreTime.String())
	if base == nil || ct == nil {
		return 0, fmt.Errorf("o2: scale sweep has no %s/%s policy pair", machine, service)
	}
	b := throughput(base).Mean
	if b == 0 {
		return 0, fmt.Errorf("o2: scale sweep %s/%s thread-scheduler cell measured zero throughput", machine, service)
	}
	return throughput(ct).Mean / b, nil
}
