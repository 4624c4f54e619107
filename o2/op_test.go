package o2

import (
	"strings"
	"testing"
)

// opTestRuntime builds a small CoreTime runtime with count objects.
func opTestRuntime(t *testing.T, count int, opts ...Option) (*Runtime, []*Object) {
	t.Helper()
	rt := MustNew(append([]Option{WithTopology(Tiny8)}, opts...)...)
	var objs []*Object
	for i := 0; i < count; i++ {
		obj, err := rt.NewObject("obj", 4<<10)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	return rt, objs
}

func TestOpEndIsIdempotent(t *testing.T) {
	rt, objs := opTestRuntime(t, 1)
	ops := 0
	rt.Go("w", 0, func(th *Thread) {
		for i := 0; i < 4; i++ {
			op := th.Begin(objs[0])
			th.LoadCompute(objs[0].Addr(0), objs[0].Size(), 0.05)
			op.End()
			op.End() // double End must be a no-op, so defer composes
			if !op.Ended() {
				t.Error("op not marked ended")
			}
			ops++
		}
	})
	rt.Run()
	if ops != 4 {
		t.Fatalf("ran %d ops, want 4", ops)
	}
	if got := rt.SchedStats().Ops; got != 4 {
		t.Errorf("scheduler saw %d ops, want exactly 4 (double End must not leak)", got)
	}
}

func TestOpDeferredEndAfterExplicitEnd(t *testing.T) {
	rt, objs := opTestRuntime(t, 1)
	rt.Go("w", 0, func(th *Thread) {
		func() {
			op := th.Begin(objs[0])
			defer op.End()
			th.Load(objs[0].Addr(0), 64)
			op.End() // early explicit end; the deferred call no-ops
		}()
		// A fresh operation after the scope must still work.
		op := th.Begin(objs[0])
		th.Load(objs[0].Addr(0), 64)
		op.End()
	})
	rt.Run()
	if got := rt.SchedStats().Ops; got != 2 {
		t.Errorf("scheduler saw %d ops, want 2", got)
	}
}

func TestOpNesting(t *testing.T) {
	rt, objs := opTestRuntime(t, 2)
	rt.Go("w", 0, func(th *Thread) {
		outer := th.Begin(objs[0])
		th.Load(objs[0].Addr(0), 256)
		inner := th.Begin(objs[1])
		th.Load(objs[1].Addr(0), 256)
		inner.End()
		outer.End()
	})
	rt.Run()
	if got := rt.SchedStats().Ops; got != 2 {
		t.Errorf("scheduler saw %d ops, want 2", got)
	}
}

func TestOpOutOfOrderEndPanics(t *testing.T) {
	rt, objs := opTestRuntime(t, 2)
	recovered := make(chan string, 1)
	rt.Go("w", 0, func(th *Thread) {
		defer func() {
			r := recover()
			if r == nil {
				recovered <- ""
			} else {
				recovered <- r.(string)
			}
			// Unwind the open operations so the thread exits cleanly.
			for len(th.ops) > 0 {
				th.ops[len(th.ops)-1].End()
			}
		}()
		outer := th.Begin(objs[0])
		th.Begin(objs[1]) // inner stays open
		outer.End()       // must panic: crossed pair
	})
	rt.Run()
	msg := <-recovered
	if msg == "" {
		t.Fatal("ending an outer op with the inner still open did not panic")
	}
	if !strings.Contains(msg, "still open") {
		t.Errorf("panic message %q does not explain the crossed pair", msg)
	}
}

func TestRuntimeBeginForeignThreadPanics(t *testing.T) {
	rtA, objs := opTestRuntime(t, 1)
	rtB := MustNew(WithTopology(Tiny8))
	panicked := false
	rtB.Go("w", 0, func(th *Thread) {
		defer func() {
			panicked = recover() != nil
		}()
		rtA.Begin(th, objs[0]) // thread belongs to rtB, not rtA
	})
	rtB.Run()
	if !panicked {
		t.Error("rt.Begin with a foreign runtime's thread did not panic")
	}
}

func TestBeginNilObjectPanics(t *testing.T) {
	rt, _ := opTestRuntime(t, 1)
	panicked := false
	rt.Go("w", 0, func(th *Thread) {
		defer func() {
			panicked = recover() != nil
		}()
		th.Begin(nil)
	})
	rt.Run()
	if !panicked {
		t.Error("Begin(nil) did not panic")
	}
}

func TestBeginROEnablesReplication(t *testing.T) {
	// Hot read-only object + replication enabled: BeginRO must feed the
	// read-only signal through, ending with one replica per chip.
	rt, objs := opTestRuntime(t, 1,
		withReplication(true),
		withReplicationThreshold(16, 0.9),
		WithMissThreshold(1),
	)
	hot := objs[0]
	for w := 0; w < rt.NumCores(); w++ {
		rt.Go("reader", w, func(th *Thread) {
			for i := 0; i < 200; i++ {
				op := th.BeginRO(hot)
				th.LoadCompute(hot.Addr(0), hot.Size(), 0.05)
				op.End()
				th.Yield()
			}
		})
	}
	rt.Run()
	replicas := rt.Replicas(hot)
	if len(replicas) < 2 {
		t.Fatalf("hot read-only object has %d replicas (%v), want one per chip", len(replicas), replicas)
	}
	if rt.SchedStats().Replications == 0 {
		t.Error("no replication events recorded")
	}
}

func TestBaselineSchedulerHandlesOps(t *testing.T) {
	// The same annotated code must run unchanged under the baseline
	// scheduler, where Begin/End are no-ops that never migrate.
	rt, objs := opTestRuntime(t, 1, WithScheduler(Baseline))
	rt.Go("w", 0, func(th *Thread) {
		op := th.Begin(objs[0])
		th.Load(objs[0].Addr(0), 64)
		op.End()
		if th.Core() != th.Home() {
			t.Errorf("baseline scheduler migrated the thread to core %d", th.Core())
		}
	})
	rt.Run()
	if got := rt.SchedStats(); got.Ops != 0 {
		t.Errorf("baseline runtime reports scheduler stats %+v, want zero value", got)
	}
	if _, placed := rt.Placement(objs[0]); placed {
		t.Error("baseline scheduler placed an object")
	}
}

func TestPlacementAndMigrationUnderCoreTime(t *testing.T) {
	// End-to-end sanity for the façade: a scanned object must get placed
	// and threads must migrate to it.
	rt, objs := opTestRuntime(t, 1, WithMissThreshold(1))
	obj := objs[0]
	for w := 0; w < 4; w++ {
		rt.Go("w", w, func(th *Thread) {
			for i := 0; i < 100; i++ {
				op := th.Begin(obj)
				th.LoadCompute(obj.Addr(0), obj.Size(), 0.05)
				op.End()
				th.Yield()
			}
		})
	}
	rt.Run()
	if _, placed := rt.Placement(obj); !placed {
		t.Error("hot object never placed under CoreTime")
	}
	if rt.SchedStats().Migrations == 0 {
		t.Error("no migrations recorded under CoreTime")
	}
}
