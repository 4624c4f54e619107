package core

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// harness bundles the pieces most tests need.
type harness struct {
	eng *sim.Engine
	m   *machine.Machine
	sys *exec.System
	rt  *Runtime
}

func newHarness(t testing.TB, opts Options) *harness {
	t.Helper()
	eng := sim.NewEngine()
	m, err := machine.New(topology.AMD16(), 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	sys := exec.NewSystem(eng, m, exec.DefaultOptions())
	return &harness{eng: eng, m: m, sys: sys, rt: New(sys, opts)}
}

func noRebalance() Options {
	o := DefaultOptions()
	o.RebalanceInterval = 0
	o.DecayWindow = 0
	return o
}

// alloc registers an object of size bytes.
func (h *harness) alloc(t testing.TB, name string, size uint64) *mem.Object {
	t.Helper()
	obj, err := h.m.Image().AllocObject(name, size)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// scanOp runs one annotated operation scanning the whole object.
func scanOp(rt *Runtime, th *exec.Thread, obj *mem.Object) {
	rt.OpStart(th, obj.Base)
	th.LoadCompute(obj.Base, int(obj.Size), 0.05)
	rt.OpEnd(th)
}

var _ sched.Annotator = (*Runtime)(nil)
var _ sched.ReadOnlyAnnotator = (*Runtime)(nil)

func TestExpensiveObjectGetsPlaced(t *testing.T) {
	h := newHarness(t, noRebalance())
	// 128 KB object: scanning it cold misses heavily.
	obj := h.alloc(t, "dir0", 128<<10)
	h.sys.Go("w", 0, func(th *exec.Thread) {
		for i := 0; i < 3; i++ {
			scanOp(h.rt, th, obj)
		}
	})
	h.eng.Run(0)
	if _, placed := h.rt.Placement(obj.Base); !placed {
		t.Fatal("heavily-missing object was never placed")
	}
	if h.rt.Stats().Placements != 1 {
		t.Fatalf("Placements = %d, want 1", h.rt.Stats().Placements)
	}
}

func TestCheapObjectStaysUnplaced(t *testing.T) {
	h := newHarness(t, noRebalance())
	// One line: after the first touch it always hits L1. The paper:
	// "otherwise, CoreTime will do nothing and the shared-memory
	// hardware will manage the object."
	obj := h.alloc(t, "tiny", 64)
	h.sys.Go("w", 0, func(th *exec.Thread) {
		for i := 0; i < 50; i++ {
			scanOp(h.rt, th, obj)
		}
	})
	h.eng.Run(0)
	if _, placed := h.rt.Placement(obj.Base); placed {
		t.Fatal("L1-resident object should never be placed")
	}
}

func TestOperationsMigrateToPlacedObject(t *testing.T) {
	opts := noRebalance()
	opts.ReturnToOrigin = true
	h := newHarness(t, opts)
	obj := h.alloc(t, "dir0", 128<<10)
	var opCores []int
	// Thread on core 5 warms the object until placement, then another
	// thread on core 9 operates on it and must migrate.
	h.sys.Go("warm", 5, func(th *exec.Thread) {
		for i := 0; i < 4; i++ {
			scanOp(h.rt, th, obj)
		}
	})
	h.sys.Go("visitor", 9, func(th *exec.Thread) {
		th.Compute(3_000_000) // wait until placed
		h.rt.OpStart(th, obj.Base)
		opCores = append(opCores, th.Core())
		th.LoadCompute(obj.Base, int(obj.Size), 0.05)
		h.rt.OpEnd(th)
		opCores = append(opCores, th.Core())
	})
	h.eng.Run(0)
	placedCore, placed := h.rt.Placement(obj.Base)
	if !placed {
		t.Fatal("object not placed")
	}
	if len(opCores) != 2 {
		t.Fatalf("opCores = %v", opCores)
	}
	if opCores[0] != placedCore {
		t.Fatalf("operation ran on core %d, object placed on %d", opCores[0], placedCore)
	}
	if opCores[1] != 9 {
		t.Fatalf("thread ended on core %d, want home 9 (ReturnToOrigin)", opCores[1])
	}
	if h.rt.Stats().Migrations == 0 {
		t.Fatal("migration not counted")
	}
}

func TestThreadRoamsByDefault(t *testing.T) {
	// Default policy: after ct_end the thread stays on the object's
	// core ("ready to run on another core", §4) instead of migrating
	// back, so consecutive operations hop object-to-object.
	h := newHarness(t, noRebalance())
	obj := h.alloc(t, "dir0", 128<<10)
	var endCore int
	h.sys.Go("warm", 5, func(th *exec.Thread) {
		for i := 0; i < 4; i++ {
			scanOp(h.rt, th, obj)
		}
	})
	h.sys.Go("visitor", 9, func(th *exec.Thread) {
		th.Compute(3_000_000)
		scanOp(h.rt, th, obj)
		endCore = th.Core()
	})
	h.eng.Run(0)
	placedCore, placed := h.rt.Placement(obj.Base)
	if !placed {
		t.Fatal("object not placed")
	}
	if endCore != placedCore {
		t.Fatalf("thread ended on core %d, want to remain on object core %d", endCore, placedCore)
	}
}

func TestNestedOperationReturnsToOuterCore(t *testing.T) {
	// Even without ReturnToOrigin, an inner operation must resume on
	// the enclosing operation's core so the outer operation's locality
	// and counter attribution survive.
	h := newHarness(t, noRebalance())
	outer := h.alloc(t, "outer", 128<<10)
	inner := h.alloc(t, "inner", 128<<10)
	oiOuter := h.rt.info(outer.Base)
	oiOuter.missEWMA = 100
	h.rt.place(oiOuter)
	oiInner := h.rt.info(inner.Base)
	oiInner.missEWMA = 100
	h.rt.place(oiInner)
	outerCore, _ := h.rt.Placement(outer.Base)
	innerCore, _ := h.rt.Placement(inner.Base)
	if outerCore == innerCore {
		t.Fatalf("setup: objects must be on distinct cores")
	}
	var afterInner int
	h.sys.Go("w", 3, func(th *exec.Thread) {
		h.rt.OpStart(th, outer.Base)
		h.rt.OpStart(th, inner.Base)
		th.LoadCompute(inner.Base, 4096, 0.05)
		h.rt.OpEnd(th)
		afterInner = th.Core()
		h.rt.OpEnd(th)
	})
	h.eng.Run(0)
	if afterInner != outerCore {
		t.Fatalf("after inner OpEnd thread on core %d, want outer's core %d", afterInner, outerCore)
	}
}

func TestLocalOperationDoesNotMigrate(t *testing.T) {
	h := newHarness(t, noRebalance())
	obj := h.alloc(t, "dir0", 128<<10)
	h.sys.Go("w", 0, func(th *exec.Thread) {
		for i := 0; i < 4; i++ {
			scanOp(h.rt, th, obj)
		}
	})
	h.eng.Run(0)
	core, placed := h.rt.Placement(obj.Base)
	if !placed {
		t.Fatal("not placed")
	}
	migBefore := h.rt.Stats().Migrations
	h.sys.Go("local", core, func(th *exec.Thread) {
		scanOp(h.rt, th, obj)
	})
	h.eng.Run(0)
	if h.rt.Stats().Migrations != migBefore {
		t.Fatal("operation on the object's own core must not migrate")
	}
}

func TestUnregisteredAddressIsHarmless(t *testing.T) {
	h := newHarness(t, noRebalance())
	a, err := h.m.Image().Alloc(4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	h.sys.Go("w", 0, func(th *exec.Thread) {
		h.rt.OpStart(th, a) // not a registered object
		th.Load(a, 4096)
		h.rt.OpEnd(th)
	})
	h.eng.Run(0)
	if h.rt.Stats().Ops != 1 {
		t.Fatalf("Ops = %d, want 1", h.rt.Stats().Ops)
	}
	if h.rt.Stats().Placements != 0 {
		t.Fatal("unregistered address must not be placed")
	}
}

func TestNestedOperations(t *testing.T) {
	h := newHarness(t, noRebalance())
	outer := h.alloc(t, "outer", 64<<10)
	inner := h.alloc(t, "inner", 64<<10)
	h.sys.Go("w", 0, func(th *exec.Thread) {
		for i := 0; i < 4; i++ {
			h.rt.OpStart(th, outer.Base)
			th.LoadCompute(outer.Base, int(outer.Size), 0.05)
			h.rt.OpStart(th, inner.Base)
			th.LoadCompute(inner.Base, int(inner.Size), 0.05)
			h.rt.OpEnd(th)
			h.rt.OpEnd(th)
		}
	})
	h.eng.Run(0)
	if h.rt.Stats().Ops != 8 {
		t.Fatalf("Ops = %d, want 8", h.rt.Stats().Ops)
	}
}

func TestOpEndWithoutStartPanics(t *testing.T) {
	h := newHarness(t, noRebalance())
	panicked := false
	h.sys.Go("bad", 0, func(th *exec.Thread) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		h.rt.OpEnd(th)
	})
	h.eng.Run(0)
	if !panicked {
		t.Fatal("unbalanced OpEnd did not panic")
	}
}

func TestBudgetNeverExceeded(t *testing.T) {
	h := newHarness(t, noRebalance())
	// Allocate far more hot objects than fit: budget per core is
	// ~0.9 MB; 64 × 512 KB = 32 MB > 16 cores × 0.9 MB.
	objs := make([]*mem.Object, 64)
	for i := range objs {
		objs[i] = h.alloc(t, "obj", 512<<10)
	}
	for i := 0; i < 16; i++ {
		i := i
		h.sys.Go("w", i, func(th *exec.Thread) {
			for r := 0; r < 3; r++ {
				for j := i; j < len(objs); j += 16 {
					scanOp(h.rt, th, objs[j])
				}
			}
		})
	}
	h.eng.Run(0)
	for c := 0; c < 16; c++ {
		if h.rt.CoreLoad(c) > h.rt.Budget() {
			t.Fatalf("core %d load %d exceeds budget %d", c, h.rt.CoreLoad(c), h.rt.Budget())
		}
	}
	if h.rt.Stats().Rejections == 0 {
		t.Fatal("oversubscription should cause placement rejections")
	}
}

func TestObjectLargerThanBudgetRejected(t *testing.T) {
	h := newHarness(t, noRebalance())
	obj := h.alloc(t, "huge", 4<<20) // > 0.9 MB budget
	h.sys.Go("w", 0, func(th *exec.Thread) {
		for i := 0; i < 3; i++ {
			scanOp(h.rt, th, obj)
		}
	})
	h.eng.Run(0)
	if _, placed := h.rt.Placement(obj.Base); placed {
		t.Fatal("object larger than any cache budget was placed")
	}
}

func TestPlacementSpreadsAcrossCores(t *testing.T) {
	h := newHarness(t, noRebalance())
	objs := make([]*mem.Object, 8)
	for i := range objs {
		objs[i] = h.alloc(t, "dir", 256<<10)
	}
	h.sys.Go("w", 0, func(th *exec.Thread) {
		for r := 0; r < 3; r++ {
			for _, o := range objs {
				scanOp(h.rt, th, o)
			}
		}
	})
	h.eng.Run(0)
	cores := map[int]int{}
	for _, o := range objs {
		c, placed := h.rt.Placement(o.Base)
		if !placed {
			t.Fatalf("object %v not placed", o.Name)
		}
		cores[c]++
	}
	// 8 × 256 KB objects against a ~0.9 MB budget: at most 3 per core,
	// so at least 3 distinct cores must be used.
	if len(cores) < 3 {
		t.Fatalf("placement used only %d cores: %v", len(cores), cores)
	}
}

func TestDecayUnplacesStaleObjects(t *testing.T) {
	opts := DefaultOptions()
	opts.RebalanceInterval = 1_000_000
	opts.DecayWindow = 2_000_000
	h := newHarness(t, opts)
	obj := h.alloc(t, "dir0", 128<<10)
	h.sys.Go("w", 0, func(th *exec.Thread) {
		for i := 0; i < 4; i++ {
			scanOp(h.rt, th, obj)
		}
		// Then go quiet far longer than the decay window.
		th.Compute(10_000_000)
	})
	h.eng.Run(0)
	if _, placed := h.rt.Placement(obj.Base); placed {
		t.Fatal("stale object still placed after decay window")
	}
	if h.rt.Stats().Unplacements == 0 {
		t.Fatal("unplacement not counted")
	}
}

func TestMonitorRebalancesOverloadedCore(t *testing.T) {
	opts := DefaultOptions()
	opts.RebalanceInterval = 500_000
	opts.DecayWindow = 0
	h := newHarness(t, opts)

	// Two hot objects force-placed on the same core. 4 threads hammer
	// both: core 2 saturates while the rest of the machine idles; the
	// monitor must split the objects.
	a := h.alloc(t, "a", 128<<10)
	b := h.alloc(t, "b", 128<<10)
	h.rt.place(h.rt.info(a.Base))
	h.rt.info(a.Base).missEWMA = 100
	oiA := h.rt.info(a.Base)
	h.rt.move(oiA, 2)
	oiB := h.rt.info(b.Base)
	oiB.missEWMA = 100
	h.rt.place(oiB)
	h.rt.move(oiB, 2)

	for i := 0; i < 4; i++ {
		i := i
		h.sys.Go("w", 4+i, func(th *exec.Thread) {
			for r := 0; r < 60; r++ {
				o := a
				if (r+i)%2 == 0 {
					o = b
				}
				scanOp(h.rt, th, o)
			}
		})
	}
	h.eng.Run(0)
	ca, _ := h.rt.Placement(a.Base)
	cb, _ := h.rt.Placement(b.Base)
	if ca == cb {
		t.Fatalf("monitor left both hot objects on core %d", ca)
	}
	if h.rt.Stats().ObjectsMoved == 0 {
		t.Fatal("no objects moved")
	}
}

func TestPackAllSortsAndSpreads(t *testing.T) {
	h := newHarness(t, noRebalance())
	objs := make([]*objInfo, 6)
	for i := range objs {
		o := h.alloc(t, "o", 256<<10)
		oi := h.rt.info(o.Base)
		oi.missEWMA = float64(100 * (i + 1))
		oi.windowOps = uint64(i)
		objs[i] = oi
	}
	h.rt.PackAll()
	for i, oi := range objs {
		if !oi.placed {
			t.Fatalf("object %d not packed", i)
		}
	}
	for c := 0; c < 16; c++ {
		if h.rt.CoreLoad(c) > h.rt.Budget() {
			t.Fatalf("core %d over budget after PackAll", c)
		}
	}
}

func TestFrequencyReplacementEvictsColdObject(t *testing.T) {
	opts := noRebalance()
	opts.Replacement = ReplaceFrequency
	h := newHarness(t, opts)

	// Fill every core's budget with cold objects.
	nCold := 16 * 2 // 2 × 448KB per core ≈ 0.875 MB ≈ budget
	cold := make([]*objInfo, nCold)
	for i := range cold {
		o := h.alloc(t, "cold", 448<<10)
		oi := h.rt.info(o.Base)
		oi.missEWMA = 50
		cold[i] = oi
		if !h.rt.place(oi) {
			t.Fatalf("setup: cold object %d did not place", i)
		}
	}
	// A hot object arrives with far higher benefit.
	hot := h.alloc(t, "hot", 448<<10)
	oiHot := h.rt.info(hot.Base)
	oiHot.missEWMA = 5000
	oiHot.windowOps = 1000
	if !h.rt.place(oiHot) {
		t.Fatal("frequency policy failed to make room for hot object")
	}
	evicted := 0
	for _, oi := range cold {
		if !oi.placed {
			evicted++
		}
	}
	if evicted != 1 {
		t.Fatalf("evicted %d cold objects, want exactly 1", evicted)
	}
}

// TestFrequencyReplacementTieBreaksByAddress pins the victim among
// equally cold placed objects: the lowest address, whatever order the
// object map iterates in. Several fresh runtimes give the map several
// iteration orders.
func TestFrequencyReplacementTieBreaksByAddress(t *testing.T) {
	for run := 0; run < 8; run++ {
		opts := noRebalance()
		opts.Replacement = ReplaceFrequency
		h := newHarness(t, opts)
		cold := make([]*objInfo, 32) // fills every core's budget
		for i := range cold {
			oi := h.rt.info(h.alloc(t, "cold", 448<<10).Base)
			oi.missEWMA = 50
			cold[i] = oi
			if !h.rt.place(oi) {
				t.Fatalf("setup: cold object %d did not place", i)
			}
		}
		hot := h.rt.info(h.alloc(t, "hot", 448<<10).Base)
		hot.missEWMA = 5000
		hot.windowOps = 1000
		if !h.rt.place(hot) {
			t.Fatal("frequency policy failed to make room for hot object")
		}
		for i, oi := range cold {
			if oi.placed == (i == 0) {
				t.Fatalf("run %d: cold object %d placed=%v; want only the lowest-address object evicted", run, i, oi.placed)
			}
		}
	}
}

func TestFirstFitPolicyDoesNotEvict(t *testing.T) {
	h := newHarness(t, noRebalance()) // ReplaceNone
	nCold := 16 * 2
	for i := 0; i < nCold; i++ {
		o := h.alloc(t, "cold", 448<<10)
		oi := h.rt.info(o.Base)
		oi.missEWMA = 50
		h.rt.place(oi)
	}
	hot := h.alloc(t, "hot", 448<<10)
	oiHot := h.rt.info(hot.Base)
	oiHot.missEWMA = 5000
	if h.rt.place(oiHot) {
		t.Fatal("first-fit policy must not evict to make room")
	}
}

func TestClusteringPlacesTogether(t *testing.T) {
	opts := noRebalance()
	opts.EnableClustering = true
	h := newHarness(t, opts)
	a := h.alloc(t, "a", 64<<10)
	b := h.alloc(t, "b", 64<<10)
	h.rt.PlaceTogether(a.Base, b.Base)
	oiA, oiB := h.rt.info(a.Base), h.rt.info(b.Base)
	oiA.missEWMA, oiB.missEWMA = 100, 100
	h.rt.place(oiA)
	h.rt.place(oiB)
	ca, _ := h.rt.Placement(a.Base)
	cb, _ := h.rt.Placement(b.Base)
	if ca != cb {
		t.Fatalf("clustered objects on cores %d and %d, want same", ca, cb)
	}
}

// TestClusterCoreDeterministicWhenSplit splits one cluster across cores
// (each core's ~0.9 MB budget holds two of its 400 KB members) and checks
// that clusterCore always names the core of the placed member with the
// lowest base address, not whichever member map iteration meets first.
func TestClusterCoreDeterministicWhenSplit(t *testing.T) {
	opts := noRebalance()
	opts.EnableClustering = true
	h := newHarness(t, opts)
	var addrs []mem.Addr
	for i := 0; i < 6; i++ {
		addrs = append(addrs, h.alloc(t, fmt.Sprintf("m%d", i), 400<<10).Base)
	}
	h.rt.PlaceTogether(addrs...)
	cores := map[int]bool{}
	for _, a := range addrs {
		oi := h.rt.info(a)
		oi.missEWMA = 100
		if !h.rt.place(oi) {
			t.Fatalf("member %#x was not placed", a)
		}
		cores[oi.core] = true
	}
	if len(cores) < 2 {
		t.Fatalf("cluster was not split: all members on one core")
	}
	id := h.rt.info(addrs[0]).cluster
	want := h.rt.info(addrs[0]).core
	for i := 0; i < 200; i++ {
		if got, ok := h.rt.clusterCore(id); !ok || got != want {
			t.Fatalf("call %d: clusterCore = %d, %v; want core %d of the lowest-addressed member", i, got, ok, want)
		}
	}
}

func TestClusteringOffSpreads(t *testing.T) {
	h := newHarness(t, noRebalance()) // clustering disabled
	a := h.alloc(t, "a", 64<<10)
	b := h.alloc(t, "b", 64<<10)
	h.rt.PlaceTogether(a.Base, b.Base) // hint present but feature off
	oiA, oiB := h.rt.info(a.Base), h.rt.info(b.Base)
	oiA.missEWMA, oiB.missEWMA = 100, 100
	h.rt.place(oiA)
	h.rt.place(oiB)
	ca, _ := h.rt.Placement(a.Base)
	cb, _ := h.rt.Placement(b.Base)
	if ca == cb {
		t.Fatal("with clustering disabled, most-free-space placement should spread")
	}
}

func TestReplicationOfHotReadOnlyObject(t *testing.T) {
	opts := noRebalance()
	opts.EnableReplication = true
	opts.ReplicateMinOps = 16
	h := newHarness(t, opts)
	obj := h.alloc(t, "hot", 64<<10)
	for i := 0; i < 8; i++ {
		h.sys.Go("r", i*2, func(th *exec.Thread) {
			for r := 0; r < 10; r++ {
				h.rt.OpStartReadOnly(th, obj.Base)
				th.LoadCompute(obj.Base, int(obj.Size), 0.05)
				h.rt.OpEnd(th)
			}
		})
	}
	h.eng.Run(0)
	reps := h.rt.Replicas(obj.Base)
	if len(reps) != 4 {
		t.Fatalf("replicas = %v, want one per chip (4)", reps)
	}
	chips := map[int]bool{}
	cfg := h.m.Config()
	for _, c := range reps {
		chips[cfg.ChipOf(c)] = true
	}
	if len(chips) != 4 {
		t.Fatalf("replicas not spread across chips: %v", reps)
	}
}

func TestWriteCollapsesReplicas(t *testing.T) {
	opts := noRebalance()
	opts.EnableReplication = true
	opts.ReplicateMinOps = 16
	h := newHarness(t, opts)
	obj := h.alloc(t, "hot", 64<<10)
	h.sys.Go("r", 0, func(th *exec.Thread) {
		for r := 0; r < 40; r++ {
			h.rt.OpStartReadOnly(th, obj.Base)
			th.LoadCompute(obj.Base, int(obj.Size), 0.05)
			h.rt.OpEnd(th)
		}
		if len(h.rt.Replicas(obj.Base)) == 0 {
			t.Error("setup: object never replicated")
		}
		// A write-capable operation must collapse the replicas.
		h.rt.OpStart(th, obj.Base)
		th.Store(obj.Base, 64)
		h.rt.OpEnd(th)
	})
	h.eng.Run(0)
	if reps := h.rt.Replicas(obj.Base); reps != nil {
		t.Fatalf("replicas survived a write: %v", reps)
	}
	if h.rt.Stats().ReplicaCollapse != 1 {
		t.Fatalf("ReplicaCollapse = %d, want 1", h.rt.Stats().ReplicaCollapse)
	}
	// Budget accounting must be restored to a single copy.
	var total int64
	for c := 0; c < 16; c++ {
		total += h.rt.CoreLoad(c)
	}
	if total != int64(obj.Size) {
		t.Fatalf("total load %d, want %d (one copy)", total, obj.Size)
	}
}

// TestProcessBudgetSumsWeightsInPidOrder: with three weights the total
// depends on the order they are added in ((0.1+0.2)+0.3 and (0.2+0.3)+0.1
// differ by an ulp), and a 1 MiB budget shows it as one byte of share. The
// total must come out the same on every call, summed in ascending process
// id, never in map order.
func TestProcessBudgetSumsWeightsInPidOrder(t *testing.T) {
	h := newHarness(t, noRebalance())
	const budget = 1 << 20
	weights := []float64{0.1, 0.2, 0.3} // variables: constant arithmetic is exact
	want := int64(float64(budget) * weights[2] / ((weights[0] + weights[1]) + weights[2]))
	for i := 0; i < 200; i++ {
		h.rt.Reset()
		h.rt.budget = budget
		for pid, w := range weights {
			h.rt.SetProcessWeight(pid, w)
		}
		for j := 0; j < 5; j++ {
			if got := h.rt.processBudget(2); got != want {
				t.Fatalf("try %d.%d: processBudget = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestProcessBudgetFairness(t *testing.T) {
	opts := noRebalance()
	h := newHarness(t, opts)
	h.rt.SetProcessWeight(1, 3)
	h.rt.SetProcessWeight(2, 1)
	// Process 1 gets 3/4 of each core budget, process 2 gets 1/4.
	b1 := h.rt.processBudget(1)
	b2 := h.rt.processBudget(2)
	if ratio := float64(b1) / float64(b2); ratio < 2.99 || ratio > 3.01 {
		t.Fatalf("budgets %d vs %d, want ratio 3:1, got %.4f", b1, b2, ratio)
	}
	// Process 2 cannot fill a whole core.
	obj := h.alloc(t, "p2obj", uint64(b2)+64<<10)
	oi := h.rt.info(obj.Base)
	oi.process = 2
	oi.missEWMA = 100
	if h.rt.place(oi) {
		t.Fatal("process 2 exceeded its budget share")
	}
	// The same object under process 1 fits.
	oi.process = 1
	if !h.rt.place(oi) {
		t.Fatal("process 1 should have room")
	}
}

func TestPlacedObjectsReport(t *testing.T) {
	h := newHarness(t, noRebalance())
	obj := h.alloc(t, "dir0", 128<<10)
	oi := h.rt.info(obj.Base)
	oi.missEWMA = 100
	h.rt.place(oi)
	per := h.rt.PlacedObjects()
	found := false
	for _, objs := range per {
		for _, o := range objs {
			if o.Base == obj.Base {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("placed object missing from report")
	}
}
