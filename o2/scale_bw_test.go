package o2

import "testing"

// scaleBWCell measures one (machine, dirlookup, policy) cell as a
// single-policy sweep. Running each policy as its own one-cell sweep —
// rather than as two values on a shared policy axis — gives both
// policies cell index 0 and therefore the SAME derived cellSeed, so the
// comparison isolates the policy from sweep-layout seed noise.
func scaleBWCell(t *testing.T, m Topology, policy KVPolicy) float64 {
	t.Helper()
	cfg := quickScaleConfig()
	cfg.Machines = []Topology{m}
	cfg.Services = []scaleService{scaleDirLookup}
	cfg.Policies = []KVPolicy{policy}
	_, sweep := scaleSweep(cfg)
	res, err := sweep.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cell(m.Name(), "dirlookup", policy.String())
	if c == nil {
		t.Fatalf("no cell for %s/dirlookup/%s", m.Name(), policy)
	}
	return c.Mean("per_core_kops")
}

// TestScaleBandwidthAwarePinsNUMA pins the tentpole's headline contract:
// on the big NUMA machines, bandwidth-aware CoreTime must never do worse
// than plain CoreTime at identical seeds. Today the closed-loop sweep
// cells keep every controller and link below its saturation window (each
// core has one miss in flight, so per-window demand stays under the
// service capacity — see DESIGN.md §14), the queueing signal reads zero,
// and the two policies are numerically identical. The pin exists for the
// day that stops being true: if a model change makes the signal fire and
// spread/admission then HURT throughput, this fails loudly.
func TestScaleBandwidthAwarePinsNUMA(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, m := range []Topology{numa128, NUMA256} {
		plain := scaleBWCell(t, m, KVCoreTime)
		bw := scaleBWCell(t, m, CoreTimeBW)
		t.Logf("%s dirlookup per-core kops: coretime %.2f, coretime-bw %.2f", m.Name(), plain, bw)
		if bw < plain {
			t.Errorf("%s: coretime-bw per-core throughput %.2f < plain coretime %.2f", m.Name(), bw, plain)
		}
	}
}

// TestScaleBandwidthAwareHoldsAMD16 guards the small-machine baseline:
// on the paper's 16-core evaluation machine the bandwidth-aware variant
// must track plain CoreTime within 3% at identical seeds. AMD16's four
// controllers (DRAM latency 230 cycles, one miss in flight per core)
// never queue in these cells, so the signal is zero and any real gap
// here means the BW path is perturbing placement when it should be
// inert.
func TestScaleBandwidthAwareHoldsAMD16(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	plain := scaleBWCell(t, AMD16, KVCoreTime)
	bw := scaleBWCell(t, AMD16, CoreTimeBW)
	t.Logf("amd16 dirlookup per-core kops: coretime %.2f, coretime-bw %.2f", plain, bw)
	if bw < 0.97*plain {
		t.Errorf("amd16: coretime-bw per-core throughput %.2f regressed past 3%% of plain coretime %.2f", bw, plain)
	}
}
