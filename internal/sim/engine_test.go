package sim

// Table-driven tests for the event engine's edge cases: empty queues,
// simultaneous timestamps, run limits, and seed plumbing. The scenario
// tests in sim_test.go cover the happy paths; these pin the boundaries the
// sweep engine's determinism guarantee rests on.

import (
	"reflect"
	"runtime"
	"testing"
)

func TestRunEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		// schedule queues events; each event appends its id to the trace.
		schedule func(e *Engine, trace *[]int)
		limit    Time
		wantEnd  Time
		want     []int // expected trace
	}{
		{
			name:     "empty queue, no limit",
			schedule: func(e *Engine, trace *[]int) {},
			wantEnd:  0,
			want:     nil,
		},
		{
			name:     "empty queue advances to the limit",
			schedule: func(e *Engine, trace *[]int) {},
			limit:    90,
			wantEnd:  90,
			want:     nil,
		},
		{
			name: "events before the limit drain, clock lands on limit",
			schedule: func(e *Engine, trace *[]int) {
				e.At(10, func() { *trace = append(*trace, 1) })
			},
			limit:   50,
			wantEnd: 50,
			want:    []int{1},
		},
		{
			name: "event exactly at the limit fires",
			schedule: func(e *Engine, trace *[]int) {
				e.At(50, func() { *trace = append(*trace, 1) })
			},
			limit:   50,
			wantEnd: 50,
			want:    []int{1},
		},
		{
			name: "event past the limit stays pending",
			schedule: func(e *Engine, trace *[]int) {
				e.At(51, func() { *trace = append(*trace, 1) })
			},
			limit:   50,
			wantEnd: 50,
			want:    nil,
		},
		{
			name: "simultaneous timestamps fire in schedule order",
			schedule: func(e *Engine, trace *[]int) {
				for i := 1; i <= 5; i++ {
					i := i
					e.At(7, func() { *trace = append(*trace, i) })
				}
			},
			wantEnd: 7,
			want:    []int{1, 2, 3, 4, 5},
		},
		{
			name: "equal-time events scheduled from inside an event run after it",
			schedule: func(e *Engine, trace *[]int) {
				e.At(5, func() {
					*trace = append(*trace, 1)
					e.At(5, func() { *trace = append(*trace, 3) })
				})
				e.At(5, func() { *trace = append(*trace, 2) })
			},
			wantEnd: 5,
			want:    []int{1, 2, 3},
		},
		{
			name: "timers and proc wakeups interleave FIFO at one instant",
			schedule: func(e *Engine, trace *[]int) {
				// The proc's wake event is enqueued when Sleep runs
				// (during Run, at t=0), after the two timers were
				// registered — so at t=10 the timers fire first.
				e.Spawn("p", func(p *Proc) {
					p.Sleep(10)
					*trace = append(*trace, 3)
				})
				e.At(10, func() { *trace = append(*trace, 1) })
				e.At(10, func() { *trace = append(*trace, 2) })
			},
			wantEnd: 10,
			want:    []int{1, 2, 3},
		},
		{
			name: "zero-length sleep yields to already-queued same-time events",
			schedule: func(e *Engine, trace *[]int) {
				e.Spawn("a", func(p *Proc) {
					*trace = append(*trace, 1)
					p.Sleep(0)
					*trace = append(*trace, 3)
				})
				e.Spawn("b", func(p *Proc) { *trace = append(*trace, 2) })
			},
			wantEnd: 0,
			want:    []int{1, 2, 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			var trace []int
			tc.schedule(e, &trace)
			end := e.Run(tc.limit)
			if end != tc.wantEnd {
				t.Errorf("Run returned %d, want %d", end, tc.wantEnd)
			}
			if !reflect.DeepEqual(trace, tc.want) {
				t.Errorf("trace = %v, want %v", trace, tc.want)
			}
		})
	}
}

func TestRunResumesAfterLimit(t *testing.T) {
	// Run-to-limit then Run-to-completion must drain in one continuous
	// order, regardless of how many events straddled the boundary.
	e := NewEngine()
	var trace []int
	for i, at := range []Time{10, 20, 30, 40} {
		i, at := i, at
		e.At(at, func() { trace = append(trace, i) })
	}
	if end := e.Run(25); end != 25 {
		t.Fatalf("first Run ended at %d, want 25", end)
	}
	if end := e.Run(0); end != 40 {
		t.Fatalf("second Run ended at %d, want 40", end)
	}
	if !reflect.DeepEqual(trace, []int{0, 1, 2, 3}) {
		t.Errorf("trace across resumed runs = %v", trace)
	}
}

func TestAfterOverflowPanics(t *testing.T) {
	// Regression: e.now + d used to wrap past zero and trip At's
	// misleading "scheduled before now" panic. The failure must name the
	// real problem: the delay overflows simulated time.
	cases := []struct {
		name string
		call func(e *Engine)
	}{
		{"After", func(e *Engine) { e.After(^Cycles(0), func() {}) }},
		{"Every", func(e *Engine) { e.Every(^Cycles(0), func() bool { return false }) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			e.At(5, func() {}) // move now off zero so the wrap lands "before now"
			e.Run(0)
			defer func() {
				msg, ok := recover().(string)
				if !ok {
					t.Fatalf("%s with overflowing delay did not panic", tc.name)
				}
				if want := "overflows simulated time"; !contains(msg, want) {
					t.Errorf("panic %q does not mention %q", msg, want)
				}
			}()
			tc.call(e)
			e.Run(0)
		})
	}
}

func TestSleepOverflowPanics(t *testing.T) {
	e := NewEngine()
	var msg string
	e.Spawn("p", func(p *Proc) {
		p.Sleep(5)
		// Recover inside the proc body itself and let the body return
		// normally, so the engine reaps the proc and Run completes.
		defer func() {
			msg, _ = recover().(string)
		}()
		p.Sleep(^Cycles(0))
	})
	e.Run(0)
	if !contains(msg, "overflows simulated time") {
		t.Errorf("Sleep overflow panic = %q", msg)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestSleepFastForward(t *testing.T) {
	// A lone proc sleeping with nothing else pending must advance time
	// without consuming events: dead time when no context is active.
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1000)
		}
	})
	end := e.Run(0)
	if end != 100_000 {
		t.Fatalf("end = %d, want 100000", end)
	}
	if e.FastSleeps() != 100 {
		t.Errorf("FastSleeps = %d, want 100", e.FastSleeps())
	}
	if e.DeadTime() != 100_000 {
		t.Errorf("DeadTime = %d, want 100000", e.DeadTime())
	}
	// Only the spawn event should have gone through the heap.
	if e.EventsDispatched() != 1 {
		t.Errorf("EventsDispatched = %d, want 1", e.EventsDispatched())
	}
}

func TestSleepFastForwardPreservesOrder(t *testing.T) {
	// A sleep landing exactly on a pending event's time must take the slow
	// path: the pending event was scheduled first and owns the instant.
	e := NewEngine()
	var trace []int
	e.At(10, func() { trace = append(trace, 1) })
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10) // ties with the timer above
		trace = append(trace, 2)
		p.Sleep(5) // nothing pending before 15: fast path
		trace = append(trace, 3)
	})
	e.Run(0)
	if !reflect.DeepEqual(trace, []int{1, 2, 3}) {
		t.Errorf("trace = %v, want [1 2 3]", trace)
	}
	if e.Now() != 15 {
		t.Errorf("now = %d, want 15", e.Now())
	}
	if e.FastSleeps() != 1 {
		t.Errorf("FastSleeps = %d, want 1", e.FastSleeps())
	}
}

func TestSleepFastForwardRespectsRunLimit(t *testing.T) {
	// A sleep past the Run limit must park the proc on the heap so Run can
	// stop at the limit and a later Run can resume it.
	e := NewEngine()
	woke := Time(0)
	e.Spawn("p", func(p *Proc) {
		p.Sleep(100)
		woke = p.Now()
	})
	if end := e.Run(30); end != 30 {
		t.Fatalf("first Run ended at %d, want 30", end)
	}
	if woke != 0 {
		t.Fatal("proc woke before the limit was lifted")
	}
	if end := e.Run(0); end != 100 {
		t.Fatalf("second Run ended at %d, want 100", end)
	}
	if woke != 100 {
		t.Errorf("proc woke at %d, want 100", woke)
	}
}

func TestActiveContextsSuppressDeadTime(t *testing.T) {
	e := NewEngine()
	e.AddActive(1)
	e.Spawn("p", func(p *Proc) { p.Sleep(500) })
	e.Run(0)
	if e.DeadTime() != 0 {
		t.Errorf("DeadTime = %d with an active context, want 0", e.DeadTime())
	}
	e.AddActive(-1)
	defer func() {
		if recover() == nil {
			t.Error("negative active count did not panic")
		}
	}()
	e.AddActive(-1)
}

func TestEngineReset(t *testing.T) {
	e := NewEngineSeeded(7)
	e.Spawn("p", func(p *Proc) { p.Sleep(10) })
	e.At(5, func() {})
	e.Run(0)
	e.Reset(11)
	if e.Now() != 0 || e.Seed() != 11 || e.Live() != 0 {
		t.Fatalf("after Reset: now=%d seed=%d live=%d", e.Now(), e.Seed(), e.Live())
	}
	if e.DeadTime() != 0 || e.FastSleeps() != 0 || e.EventsDispatched() != 0 {
		t.Fatal("Reset did not clear counters")
	}
	// The reset engine must behave exactly like a fresh one.
	var trace []int
	e.At(3, func() { trace = append(trace, 1) })
	e.Spawn("q", func(p *Proc) {
		p.Sleep(3)
		trace = append(trace, 2)
	})
	if end := e.Run(0); end != 3 {
		t.Fatalf("reset engine ended at %d, want 3", end)
	}
	if !reflect.DeepEqual(trace, []int{1, 2}) {
		t.Errorf("trace = %v, want [1 2]", trace)
	}
}

func TestResetWithPendingEventsPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	defer func() {
		if recover() == nil {
			t.Error("Reset with pending events did not panic")
		}
	}()
	e.Reset(0)
}

func TestEngineSeedPlumbing(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *Engine
		want uint64
	}{
		{"unseeded engine has seed zero", NewEngine, 0},
		{"seeded engine carries its seed", func() *Engine { return NewEngineSeeded(41) }, 41},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.mk().Seed(); got != tc.want {
				t.Errorf("Seed() = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestEngineRNGStreams(t *testing.T) {
	a, b := NewEngineSeeded(9), NewEngineSeeded(9)
	// Same (seed, stream) on different engines: identical sequences.
	ra, rb := a.RNG(1), b.RNG(1)
	for i := 0; i < 8; i++ {
		if ra.Uint64() != rb.Uint64() {
			t.Fatal("equal (seed, stream) pairs diverged")
		}
	}
	// Distinct streams and distinct seeds: decorrelated.
	if a.RNG(1).Uint64() == a.RNG(2).Uint64() {
		t.Error("streams 1 and 2 derive the same generator")
	}
	if a.RNG(1).Uint64() == NewEngineSeeded(10).RNG(1).Uint64() {
		t.Error("different engine seeds derive the same generator")
	}
	// Deriving an RNG mutates no engine state: repeat derivation matches.
	if a.RNG(3).Uint64() != a.RNG(3).Uint64() {
		t.Error("RNG derivation is stateful")
	}
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	// A panic inside a proc body must propagate out of Run on the caller's
	// goroutine, where it can be recovered, instead of killing the process
	// from a goroutine nobody can reach.
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10)
		panic("body failed")
	})
	e.At(5, func() {}) // forces the Sleep above onto the switching path
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run(0)
		return nil
	}()
	if got != "body failed" {
		t.Fatalf("recovered %v from Run, want the body's panic value", got)
	}
	// The engine is abandoned mid-dispatch; Close still drains it.
	e.Close()
	if e.Live() != 0 || e.Pending() != 0 {
		t.Errorf("after Close: live=%d pending=%d", e.Live(), e.Pending())
	}
}

func TestCloseStopsStrandedProcs(t *testing.T) {
	// A run cut short by Stop strands procs in Sleep, Park and Join,
	// plus one that never started. Close must unwind every one of them
	// without running another statement of their bodies, run their
	// deferred calls, and leave the engine drained and reusable.
	e := NewEngine()
	var after []string
	var deferred []string
	sleeper := e.Spawn("sleeper", func(p *Proc) {
		defer func() { deferred = append(deferred, "sleeper") }()
		p.Sleep(1000)
		after = append(after, "sleeper")
	})
	e.Spawn("parker", func(p *Proc) {
		defer func() {
			// A deferred call that blocks again unwinds the same way.
			deferred = append(deferred, "parker")
			p.Sleep(1)
			deferred = append(deferred, "parker after deferred sleep")
		}()
		p.Park()
		after = append(after, "parker")
	})
	e.Spawn("joiner", func(p *Proc) {
		p.Join(sleeper)
		after = append(after, "joiner")
	})
	e.At(50, func() {
		e.Spawn("late", func(p *Proc) { after = append(after, "late") })
		e.Stop() // "late" never starts
	})
	e.Run(0)
	if e.Live() != 4 {
		t.Fatalf("Live = %d before Close, want 4", e.Live())
	}
	e.Close()
	if len(after) != 0 {
		t.Errorf("stopped bodies kept running: %v", after)
	}
	if len(deferred) != 2 || !contains(deferred[0]+deferred[1], "sleeper") ||
		!contains(deferred[0]+deferred[1], "parker") {
		t.Errorf("deferred calls = %v, want one each from sleeper and parker", deferred)
	}
	if e.Live() != 0 || e.Pending() != 0 || e.Running() != nil {
		t.Fatalf("after Close: live=%d pending=%d running=%v", e.Live(), e.Pending(), e.Running())
	}
	if !sleeper.Done() {
		t.Error("stopped proc does not report Done")
	}
	e.Reset(3)
	ran := false
	e.Spawn("fresh", func(p *Proc) {
		p.Sleep(5)
		ran = true
	})
	if end := e.Run(0); end != 5 || !ran {
		t.Errorf("engine after Close+Reset: end=%d ran=%v", end, ran)
	}
}

func TestCloseReleasesCoroutines(t *testing.T) {
	// Every stranded proc pins a coroutine goroutine until Close stops it.
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		e := NewEngine()
		for j := 0; j < 8; j++ {
			e.Spawn("p", func(p *Proc) {
				for {
					p.Sleep(7)
				}
			})
		}
		e.Run(100)
		e.Close()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d → %d across closed truncated runs", before, after)
	}
}

// TestReserveHoldsTheBatch checks that Reserve makes room for a whole
// batch of events: scheduling that many afterwards never grows the
// queue.
func TestReserveHoldsTheBatch(t *testing.T) {
	const n = 1000
	e := NewEngine()
	e.At(1, func() {})
	e.Reserve(n)
	c := cap(e.events)
	for i := 0; i < n; i++ {
		e.At(Time(i+2), func() {})
	}
	if c < 1+n || cap(e.events) != c {
		t.Fatalf("Reserve(%d) left capacity %d, which grew to %d under the batch", n, c, cap(e.events))
	}
}
