package core

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/perfctr"
	"repro/internal/sim"
	"repro/internal/topology"
)

// newNUMAHarness is newHarness on the 64-core NUMA preset, whose 8-socket
// grid gives the bandwidth-aware monitor distinct sockets and hop
// distances to reason about.
func newNUMAHarness(t testing.TB, opts Options) *harness {
	t.Helper()
	eng := sim.NewEngine()
	m, err := machine.New(topology.NUMA64(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	sys := exec.NewSystem(eng, m, exec.DefaultOptions())
	return &harness{eng: eng, m: m, sys: sys, rt: New(sys, opts)}
}

// seedBWSignals installs fabricated smoothed queue signals, as if the
// monitor had already observed a full window, so spread/admission
// decisions can be unit-tested without reconstructing real saturation.
func seedBWSignals(rt *Runtime) {
	rt.mon.sockScratch = make([]perfctr.Counters, rt.nchips)
	rt.mon.dramQ = make([]float64, rt.nchips)
	rt.mon.linkQ = make([]float64, rt.nchips)
	rt.mon.bwInit = true
}

func TestUnusedCoreClassifiedIdleNotOverloaded(t *testing.T) {
	// Regression: a core never acquired since reset accrues neither busy
	// nor idle cycles (the exec layer starts the idle clock at first
	// use), so a core that slept through a dead-time fast-forwarded gap
	// read idleFrac == 0 and was classified overloaded — its placed
	// objects were bounced off a core nobody was even running on.
	opts := DefaultOptions()
	opts.RebalanceInterval = 500_000
	h := newHarness(t, opts)

	a := h.alloc(t, "a", 32<<10)
	b := h.alloc(t, "b", 32<<10)
	oa, ob := h.rt.info(a.Base), h.rt.info(b.Base)
	oa.missEWMA, ob.missEWMA = 100, 100
	h.rt.assign(oa, 7) // two objects: placedCount > 1 arms the old bug
	h.rt.assign(ob, 7)

	// One thread computes briefly, then sleeps through several monitor
	// windows. With no active thread the engine fast-forwards the gaps
	// as dead time; core 7 is never touched at all.
	h.sys.Go("sleeper", 0, func(th *exec.Thread) {
		th.Compute(100_000)
		th.IdleUntil(2_600_000)
		oa.lastAccess = th.Now() // keep decay out of the picture
		ob.lastAccess = th.Now()
	})
	h.eng.Run(0)

	if h.eng.DeadTime() == 0 {
		t.Fatal("test never exercised the dead-time fast-forward path")
	}
	if got := h.rt.Stats().ObjectsMoved; got != 0 {
		t.Fatalf("monitor moved %d objects off a never-used core", got)
	}
	if core, placed := h.rt.Placement(a.Base); !placed || core != 7 {
		t.Fatalf("object a at core=%d placed=%v, want core 7", core, placed)
	}
}

func TestRebalanceZeroLengthWindowIsNoOp(t *testing.T) {
	// Two monitor firings at the same cycle (an arena reset can
	// re-register the tick on an engine whose clock has not advanced)
	// must not classify against a zero-length window.
	h := newHarness(t, noRebalance())
	a := h.alloc(t, "a", 32<<10)
	b := h.alloc(t, "b", 32<<10)
	oa, ob := h.rt.info(a.Base), h.rt.info(b.Base)
	oa.missEWMA, ob.missEWMA = 100, 100
	h.rt.assign(oa, 0)
	h.rt.assign(ob, 0)

	h.rt.rebalance() // first pass: baseline only
	h.rt.rebalance() // same cycle: zero-length window, must be a no-op
	if got := h.rt.Stats(); got.ObjectsMoved != 0 || got.Rebalances != 0 {
		t.Fatalf("zero-length window rebalanced: %+v", got)
	}

	// The same back-to-back shape through a full arena reset chain.
	h.eng.Reset(1)
	h.m.Reset()
	h.sys.Reset()
	h.rt.Reset()
	h.rt.rebalance()
	h.rt.rebalance()
	if got := h.rt.Stats(); got.ObjectsMoved != 0 || got.Rebalances != 0 {
		t.Fatalf("zero-length window after reset rebalanced: %+v", got)
	}

	// balanceLoad itself must refuse a zero elapsed denominator even
	// with non-trivial deltas.
	deltas := make([]perfctr.Counters, h.rt.sys.NumCores())
	deltas[1].IdleCycles = 400_000
	if moved := h.rt.balanceLoad(deltas, 0); moved != 0 {
		t.Fatalf("balanceLoad moved %d over a zero-length window", moved)
	}
}

func TestSpreadMovesHotObjectsOffSaturatedSocket(t *testing.T) {
	opts := noRebalance()
	opts.BWSpread = true
	h := newNUMAHarness(t, opts)
	rt := h.rt
	seedBWSignals(rt)
	rt.mon.dramQ[0] = 0.5 // socket 0 saturated, everyone else at zero

	objs := make([]*objInfo, 4)
	for i := range objs {
		obj := h.alloc(t, string(rune('a'+i)), 32<<10)
		objs[i] = rt.info(obj.Base)
		rt.assign(objs[i], i) // cores 0–3 are all on socket 0
	}
	// Distinct heat: the spread must take the hottest half.
	objs[0].missEWMA, objs[1].missEWMA = 100, 90
	objs[2].missEWMA, objs[3].missEWMA = 5, 4

	moved := rt.spreadSaturated()
	if moved != 2 {
		t.Fatalf("spread moved %d objects, want 2 (half of 4)", moved)
	}
	for i, oi := range objs[:2] {
		if s := rt.chipOf[oi.core]; s != 1 {
			// DRAM-bound: destination is the least-saturated socket,
			// index tie-break — socket 1.
			t.Fatalf("hot object %d spread to socket %d, want 1", i, s)
		}
	}
	for i, oi := range objs[2:] {
		if s := rt.chipOf[oi.core]; s != 0 {
			t.Fatalf("cold object %d moved to socket %d, want to stay on 0", i, s)
		}
	}
	if rt.stats.BWSpreadMoves != 2 {
		t.Fatalf("BWSpreadMoves = %d, want 2", rt.stats.BWSpreadMoves)
	}
}

func TestSpreadPrefersLowHopWhenLinkBound(t *testing.T) {
	// NUMA64 is a 4×2 grid of 8 sockets: from socket 0, socket 1 is one
	// hop and socket 7 is four. Only those two have headroom; socket 7
	// has the lower signal. Link-bound saturation must pick the near
	// socket anyway (the interconnect is the contended resource), while
	// DRAM-bound saturation must pick the least-saturated one.
	for _, tc := range []struct {
		name       string
		dram, link float64
		wantSocket int
	}{
		{"link-bound", 0.05, 0.40, 1},
		{"dram-bound", 0.40, 0.05, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := noRebalance()
			opts.BWSpread = true
			h := newNUMAHarness(t, opts)
			rt := h.rt
			seedBWSignals(rt)
			rt.mon.dramQ[0], rt.mon.linkQ[0] = tc.dram, tc.link
			for s := 1; s < rt.nchips; s++ {
				rt.mon.dramQ[s] = 0.15 // below saturation, above headroom
			}
			rt.mon.dramQ[1] = 0.05
			rt.mon.dramQ[7] = 0.0

			a := rt.info(h.alloc(t, "a", 32<<10).Base)
			b := rt.info(h.alloc(t, "b", 32<<10).Base)
			rt.assign(a, 0)
			rt.assign(b, 1)

			if moved := rt.spreadSaturated(); moved != 1 {
				t.Fatalf("spread moved %d, want 1 (half of 2)", moved)
			}
			movedObj := a
			if b.core >= 8 {
				movedObj = b
			}
			if s := rt.chipOf[movedObj.core]; s != tc.wantSocket {
				t.Fatalf("spread to socket %d, want %d", s, tc.wantSocket)
			}
		})
	}
}

func TestAdmissionRefusesSaturatedSocket(t *testing.T) {
	opts := noRebalance()
	opts.BWAdmission = true
	h := newNUMAHarness(t, opts)
	rt := h.rt
	seedBWSignals(rt)
	rt.mon.dramQ[0] = 0.5

	oi := rt.info(h.alloc(t, "hot", 32<<10).Base)
	oi.missEWMA = 100
	if !rt.place(oi) {
		t.Fatal("placement failed with seven admitting sockets free")
	}
	if s := rt.chipOf[oi.core]; s == 0 {
		t.Fatal("placement admitted onto the saturated socket")
	}

	// Saturate everything: the object must stay unplaced (served from
	// DRAM until queues drain), counted as an admission refusal rather
	// than a capacity rejection.
	for s := range rt.mon.dramQ {
		rt.mon.dramQ[s] = 0.5
	}
	o2 := rt.info(h.alloc(t, "hot2", 32<<10).Base)
	o2.missEWMA = 100
	if rt.place(o2) {
		t.Fatal("placement succeeded with every socket saturated")
	}
	if rt.stats.BWAdmitRefusals == 0 {
		t.Fatal("refusal not counted in BWAdmitRefusals")
	}
}

func TestAdmissionInertBeforeFirstWindow(t *testing.T) {
	// Until the first full window seeds the signals, bandwidth-aware
	// CoreTime must behave exactly like the plain policy.
	opts := noRebalance()
	opts.BWAdmission = true
	opts.BWSpread = true
	h := newNUMAHarness(t, opts)
	if !h.rt.admits(0) {
		t.Fatal("admission active before any signal exists")
	}
	if moved := h.rt.spreadSaturated(); moved != 0 {
		t.Fatalf("spread moved %d objects before any signal exists", moved)
	}
	oi := h.rt.info(h.alloc(t, "hot", 32<<10).Base)
	oi.missEWMA = 100
	if !h.rt.place(oi) {
		t.Fatal("placement refused before any signal exists")
	}
}

func TestUpdateBWSignalsRollsUpAndSmooths(t *testing.T) {
	h := newNUMAHarness(t, noRebalance())
	rt := h.rt

	deltas := make([]perfctr.Counters, rt.sys.NumCores())
	// Socket 0 (cores 0–7): 1000 busy cycles, 400 DRAM-queue cycles and
	// 100 link-queue cycles → signals 0.4 and 0.1.
	for c := 0; c < 8; c++ {
		deltas[c].BusyCycles = 125
		deltas[c].DRAMQueueCycles = 50
		deltas[c].LinkQueueCycles = 12 // 96 total: 0.096
	}
	rt.updateBWSignals(deltas)
	if !rt.mon.bwInit {
		t.Fatal("first window did not seed the EWMAs")
	}
	if got := rt.mon.dramQ[0]; got != 0.4 {
		t.Fatalf("seed dramQ[0] = %v, want 0.4", got)
	}
	if got := rt.mon.dramQ[1]; got != 0 {
		t.Fatalf("idle socket dramQ[1] = %v, want 0", got)
	}

	// A zero second window halves the smoothed signal at alpha 0.5.
	for c := 0; c < 8; c++ {
		deltas[c].DRAMQueueCycles = 0
		deltas[c].LinkQueueCycles = 0
	}
	rt.updateBWSignals(deltas)
	if got := rt.mon.dramQ[0]; got != 0.2 {
		t.Fatalf("smoothed dramQ[0] = %v, want 0.2", got)
	}
}
