package o2

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// defaultImageBytes sizes the machine address space unless a workload
// tree built before first use needs more.
const defaultImageBytes = 64 << 20

// Runtime is a built O2 system: one simulated machine, its execution
// substrate, and the selected scheduler. Construct one with New; all
// methods are for use from the single goroutine driving the simulation.
//
// The machine itself materializes lazily on first use (object allocation,
// workload construction, or thread spawn), so a workload tree built first
// can size the memory image exactly.
type Runtime struct {
	set *settings

	eng    *sim.Engine
	mach   *machine.Machine
	sys    *exec.System
	ann    sched.Annotator
	ct     *core.Runtime // nil under the Baseline scheduler
	tracer *trace.Tracer
	tel    runtimeTelemetry
}

// New builds a Runtime from functional options. With no options it models
// the paper's AMD16 machine under the CoreTime scheduler.
func New(opts ...Option) (*Runtime, error) {
	set := defaultSettings()
	for _, opt := range opts {
		opt(set)
	}
	if err := set.validate(); err != nil {
		return nil, err
	}
	set.ct.Tracer = set.tracer()
	return &Runtime{set: set, tracer: set.ct.Tracer}, nil
}

// MustNew is New, panicking on error; convenient in examples and tests.
func MustNew(opts ...Option) *Runtime {
	rt, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return rt
}

// ensure materializes the engine, machine, substrate, and scheduler. A
// workload builder passes the address space it needs; zero means "no
// requirement". The machine's address space is the 64 MB default, raised
// to that requirement. It holds no bytes, so its size costs no host
// memory.
func (rt *Runtime) ensure(minImage int) error {
	if rt.sys != nil {
		return nil
	}
	m, err := machine.New(rt.set.topo.cfg, max(defaultImageBytes, minImage))
	if err != nil {
		return err
	}
	rt.eng = sim.NewEngineSeeded(rt.set.seed)
	rt.mach = m
	rt.sys = exec.NewSystem(rt.eng, m, rt.set.exec)
	switch rt.set.sched {
	case CoreTime:
		rt.ct = core.New(rt.sys, rt.set.ct)
		rt.ann = rt.ct
	case Affinity:
		rt.ann = sched.NewHashAffinity(rt.set.topo.NumCores())
	default:
		rt.ann = sched.ThreadScheduler{}
	}
	rt.initTelemetry()
	return nil
}

// resetForRepeat rolls a drained runtime back to its post-build state so a
// sweep can reuse it for the next repeat of the same cell instead of
// building a fresh one. It resets the engine (keeping the event heap's
// backing array) under the new seed, returns every core to idle, flushes
// all cache and counter state, and rolls the machine image back to mark —
// the point taken right after the scenario was built. The scheduler is
// rebuilt exactly as ensure built it, because scheduler state (CoreTime
// placements, run-queue history) belongs to one run.
//
// The caller must guarantee the engine is drained (no live procs, no
// pending events); Engine.Reset panics otherwise.
func (rt *Runtime) resetForRepeat(seed uint64, mark mem.ImageMark) {
	rt.eng.Reset(seed)
	rt.sys.Reset()
	rt.mach.Reset()
	rt.mach.Image().ResetTo(mark)
	rt.set.seed = seed
	switch rt.set.sched {
	case CoreTime:
		// Reset the existing CoreTime runtime rather than rebuilding it:
		// pooled opCtx records and map storage carry over, while the
		// observable state matches a fresh core.New.
		rt.ct.Reset()
		rt.ann = rt.ct
	case Affinity:
		rt.ann = sched.NewHashAffinity(rt.set.topo.NumCores())
	default:
		rt.ann = sched.ThreadScheduler{}
	}
	rt.resetTelemetry()
}

// mustEnsure is ensure for paths that cannot return an error; after New's
// validation the only failures left are programming errors.
func (rt *Runtime) mustEnsure() {
	if err := rt.ensure(0); err != nil {
		panic(fmt.Sprintf("o2: materializing runtime: %v", err))
	}
}

// annStartRO dispatches a read-only operation start to the scheduler,
// falling back to a plain start when it cannot exploit read-onlyness.
func (rt *Runtime) annStartRO(t *exec.Thread, o *Object) {
	sched.OpStartRO(rt.ann, t, o.obj.Base)
}

// Scheduler returns the configured scheduling policy.
func (rt *Runtime) Scheduler() Scheduler { return rt.set.sched }

// SchedulerName returns the scheduler's report name ("coretime",
// "thread-scheduler", or "hash-affinity"), matching Result.Scheduler.
func (rt *Runtime) SchedulerName() string { return rt.set.sched.String() }

// Topology returns the machine description the runtime models.
func (rt *Runtime) Topology() Topology { return rt.set.topo }

// Seed returns the runtime's base RNG seed (see WithSeed).
func (rt *Runtime) Seed() uint64 { return rt.set.seed }

// NumCores returns the machine's core count.
func (rt *Runtime) NumCores() int { return rt.set.topo.NumCores() }

// ClockHz returns the simulated clock rate, for converting cycles to
// seconds in reports.
func (rt *Runtime) ClockHz() float64 { return rt.set.topo.ClockHz() }

// Now returns the current simulated time.
func (rt *Runtime) Now() Time {
	rt.mustEnsure()
	return rt.eng.Now()
}

// Run drives the simulation until every spawned thread finishes and
// returns the final simulated time.
func (rt *Runtime) Run() Time {
	rt.mustEnsure()
	return rt.eng.Run(0)
}

// RunUntil drives the simulation until limit (or until all threads
// finish, whichever is first) and returns the final simulated time.
func (rt *Runtime) RunUntil(limit Time) Time {
	rt.mustEnsure()
	return rt.eng.Run(limit)
}

// At schedules fn to run at absolute simulated time t during Run.
func (rt *Runtime) At(t Time, fn func()) {
	rt.mustEnsure()
	rt.eng.At(t, fn)
}

// NewObject allocates size bytes in simulated memory and registers them as
// a named schedulable object.
func (rt *Runtime) NewObject(name string, size int) (*Object, error) {
	if size <= 0 {
		return nil, fmt.Errorf("o2: object %q size %d must be positive", name, size)
	}
	if err := rt.ensure(0); err != nil {
		return nil, err
	}
	obj, err := rt.mach.Image().AllocObject(name, uint64(size))
	if err != nil {
		return nil, err
	}
	return &Object{obj: obj}, nil
}

// Go spawns a green thread on the given home core running body. The thread
// starts when Run drives the simulation.
func (rt *Runtime) Go(name string, home int, body func(t *Thread)) *Thread {
	rt.mustEnsure()
	wrapped := &Thread{rt: rt}
	wrapped.t = rt.sys.Go(name, home, func(inner *exec.Thread) {
		body(wrapped)
		if len(wrapped.ops) > 0 {
			panic(fmt.Sprintf("o2: thread %q finished with %d operation(s) still open",
				name, len(wrapped.ops)))
		}
	})
	return wrapped
}

// NewLock allocates a spin lock in simulated memory; contended
// acquisitions generate real coherence traffic.
func (rt *Runtime) NewLock(name string) *Lock {
	rt.mustEnsure()
	return &Lock{l: rt.sys.NewSpinLock(name)}
}

// PlaceTogether marks the objects as a cluster the packer should keep in
// one cache (§6.2). It is a hint; it only takes effect under CoreTime with
// the clustering extension on, which only the package's clustering
// ablations enable.
func (rt *Runtime) PlaceTogether(objs ...*Object) {
	if rt.ct == nil {
		return
	}
	addrs := make([]mem.Addr, len(objs))
	for i, o := range objs {
		addrs[i] = o.obj.Base
	}
	rt.ct.PlaceTogether(addrs...)
}

// SetProcessWeight assigns a cache-budget fairness weight to a process id
// (§6.2); threads tag themselves with Thread.SetProcess. Under the
// Baseline scheduler weights have no effect.
func (rt *Runtime) SetProcessWeight(pid int, w float64) {
	rt.mustEnsure()
	if rt.ct != nil {
		rt.ct.SetProcessWeight(pid, w)
	}
}

// Placement reports the core the object is assigned to, if any. Under the
// Baseline scheduler nothing is ever placed.
func (rt *Runtime) Placement(o *Object) (coreID int, placed bool) {
	if rt.ct == nil {
		return 0, false
	}
	return rt.ct.Placement(o.obj.Base)
}

// Replicas returns the cores holding read-only replicas of the object, or
// nil when it is not replicated.
func (rt *Runtime) Replicas(o *Object) []int {
	if rt.ct == nil {
		return nil
	}
	return rt.ct.Replicas(o.obj.Base)
}

// SchedStats returns the scheduler's event counters. Under the Baseline
// scheduler all counts are zero.
func (rt *Runtime) SchedStats() SchedStats {
	if rt.ct == nil {
		return SchedStats{}
	}
	return rt.ct.Stats()
}

// TraceEvents returns the recorded scheduler decisions. It returns
// ErrTraceDisabled on a runtime built without WithTrace (or
// WithTelemetry, which implies it) — distinct from a nil, error-free
// result, which means tracing was on but nothing has been recorded yet.
func (rt *Runtime) TraceEvents() ([]TraceEvent, error) {
	if rt.tracer == nil {
		return nil, ErrTraceDisabled
	}
	return rt.tracer.Events(), nil
}

// DumpTrace writes the recorded scheduler decisions to w and returns how
// many were written. Like TraceEvents, it returns ErrTraceDisabled when
// the runtime records no trace, so callers can tell "tracing off" from
// "no events yet".
func (rt *Runtime) DumpTrace(w io.Writer) (int, error) {
	if rt.tracer == nil {
		return 0, ErrTraceDisabled
	}
	rt.tracer.Dump(w)
	return len(rt.tracer.Events()), nil
}

// Object is a registered region of simulated memory the scheduler can
// place: the unit the paper assigns to caches.
type Object struct {
	obj *mem.Object
}

// Name returns the object's registration name.
func (o *Object) Name() string { return o.obj.Name }

// Size returns the object's size in bytes.
func (o *Object) Size() int { return int(o.obj.Size) }

// Addr returns the address offset bytes into the object.
func (o *Object) Addr(offset int) Addr { return o.obj.Base + Addr(offset) }

// Thread is a cooperative green thread bound to a home core, able to
// migrate for the duration of an operation. Threads advance simulated time
// explicitly: Compute charges CPU cycles, Load/Store charge memory latency
// through the machine model.
type Thread struct {
	rt  *Runtime
	t   *exec.Thread
	ops []*Op // in-flight operations, innermost last
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.t.Name() }

// Now returns the current simulated time.
func (t *Thread) Now() Time { return t.t.Now() }

// Core returns the core the thread currently runs on.
func (t *Thread) Core() int { return t.t.Core() }

// Home returns the thread's home core.
func (t *Thread) Home() int { return t.t.Home() }

// SetProcess tags the thread with an owning process id for the fairness
// extension (§6.2).
func (t *Thread) SetProcess(pid int) { t.t.SetProcess(pid) }

// Compute charges c cycles of computation.
func (t *Thread) Compute(c Cycles) { t.t.Compute(c) }

// Load charges a read of [addr, addr+size) through the memory hierarchy.
func (t *Thread) Load(addr Addr, size int) { t.t.Load(addr, size) }

// Store charges a write of [addr, addr+size).
func (t *Thread) Store(addr Addr, size int) { t.t.Store(addr, size) }

// LoadCompute interleaves a scan of [addr, addr+size) with perByte cycles
// of computation per byte — the shape of a scan loop — charged as one
// event.
func (t *Thread) LoadCompute(addr Addr, size int, perByte float64) {
	t.t.LoadCompute(addr, size, perByte)
}

// Yield gives other threads queued on the current core a chance to run.
func (t *Thread) Yield() { t.t.Yield() }

// IdleUntil suspends the thread until simulated time target, releasing its
// current core for the duration (the core accrues idle, not busy, cycles).
// It returns immediately when target is not in the future. This is how an
// open-loop service worker waits for the next request arrival.
func (t *Thread) IdleUntil(target Time) { t.t.IdleUntil(target) }

// MigrateTo moves the thread to core dst explicitly, paying the full
// migration cost. Operations started with Begin migrate automatically;
// this is for microbenchmarks and custom schedulers.
func (t *Thread) MigrateTo(dst int) { t.t.MigrateTo(dst) }

// ReturnHome migrates the thread back to its home core.
func (t *Thread) ReturnHome() { t.t.ReturnHome() }

// Lock acquires l, charging test-and-set attempts and backoff.
func (t *Thread) Lock(l *Lock) { t.t.Lock(l.l) }

// Unlock releases l; only the holder may unlock.
func (t *Thread) Unlock(l *Lock) { t.t.Unlock(l.l) }

// Lock is a spin lock living at a real address in simulated memory.
type Lock struct {
	l *exec.SpinLock
}

// Held reports whether the lock is currently held.
func (l *Lock) Held() bool { return l.l.Held() }
