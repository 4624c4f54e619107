package sim

import (
	"fmt"
	"iter"
)

type procState uint8

const (
	procNew procState = iota
	procRunning
	procSleeping // wake event queued
	procParked   // waiting for an explicit Unpark
	procDead
)

func (s procState) String() string {
	switch s {
	case procNew:
		return "new"
	case procRunning:
		return "running"
	case procSleeping:
		return "sleeping"
	case procParked:
		return "parked"
	case procDead:
		return "dead"
	}
	return "invalid"
}

// Proc is a simulated thread of control. Its body runs as a coroutine
// (iter.Pull): the engine resumes it with next and the body hands control
// back through yield, so only one proc (or the engine itself) executes at a
// time and proc bodies may touch shared simulation state freely.
//
// Procs advance simulated time only through Sleep; pure computation inside
// a proc body is instantaneous in simulated time.
//
// Engine.Close stops a blocked proc: the Sleep, Park or Join it is blocked
// in panics with an unexported sentinel that the proc's root recovers, so
// the body unwinds without running another statement. Deferred calls in
// the body do run; one that blocks again unwinds the same way.
type Proc struct {
	eng   *Engine
	name  string
	state procState
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	slot  int // index in Engine.live while the proc is live

	// waiters are procs parked in Join, woken when this proc finishes.
	waiters []*Proc
}

// procClosed is the panic value that unwinds a proc stopped by
// Engine.Close.
type procClosed struct{}

// Spawn creates a proc named name executing body and schedules it to start
// at the current time. It must be called in engine context or before Run.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, state: procNew, slot: len(e.live)}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil && r != (procClosed{}) {
				panic(r)
			}
		}()
		body(p)
		p.state = procDead
	})
	e.live = append(e.live, p)
	p.state = procSleeping
	e.push(event{at: e.now, p: p})
	return p
}

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the proc's name (used in diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep suspends the proc for d cycles of simulated time. Sleep(0) yields
// to the engine and resumes after other events scheduled for the current
// instant.
//
// Fast-forward: when the wake time strictly precedes every pending event
// (and no Stop or Run limit intervenes), the proc's wake event would be
// popped next with nothing in between, so Sleep jumps Engine.now straight
// to the wake time and returns without a heap push or coroutine switch.
// Strictness preserves the (at, seq) contract: an equal-time pending event
// carries a smaller seq and must fire first, so it forces the slow path.
//
//o2:hotpath
func (p *Proc) Sleep(d Cycles) {
	p.mustBeRunning("Sleep")
	e := p.eng
	target := e.now + d
	if target < e.now {
		sleepOverflow(d, e.now)
	}
	if !e.stopped && (e.limit == 0 || target <= e.limit) &&
		(len(e.events) == 0 || target < e.events[0].at) {
		if e.active == 0 {
			e.deadTime += d
		}
		e.fastSleeps++
		e.now = target
		return
	}
	p.state = procSleeping
	e.push(event{at: target, p: p})
	p.switchToEngine()
}

// Park suspends the proc indefinitely; another proc or timer must call
// Unpark to make it runnable again.
func (p *Proc) Park() {
	p.mustBeRunning("Park")
	p.state = procParked
	p.switchToEngine()
}

// Unpark makes a parked proc runnable at the current simulated time. It is
// a no-op when the proc is not parked (already runnable, sleeping, or
// dead), which lets wakers race benignly with timeouts.
func (p *Proc) Unpark() {
	if p.state != procParked {
		return
	}
	p.state = procSleeping
	p.eng.push(event{at: p.eng.now, p: p})
}

// Done reports whether the proc body has returned.
func (p *Proc) Done() bool { return p.state == procDead }

// Join parks the calling proc until target finishes. Joining a finished
// proc returns immediately.
func (p *Proc) Join(target *Proc) {
	p.mustBeRunning("Join")
	if target.state == procDead {
		return
	}
	target.waiters = append(target.waiters, p)
	p.Park()
}

// sleepOverflow lives outside Sleep so the hot path stays free of fmt.
func sleepOverflow(d Cycles, now Time) {
	panic(fmt.Sprintf("sim: Sleep(%d) overflows simulated time (now=%d)", d, now))
}

// switchToEngine suspends the proc's coroutine until the engine resumes it.
// yield reports false only when Engine.Close stopped the coroutine instead.
func (p *Proc) switchToEngine() {
	if !p.yield(struct{}{}) {
		panic(procClosed{})
	}
}

func (p *Proc) mustBeRunning(op string) {
	if p.eng.running != p {
		panic(fmt.Sprintf("sim: %s called on proc %q in state %v from outside its own body",
			op, p.name, p.state))
	}
}

// WaitGroup counts in-flight procs, for proc bodies that fork helpers and
// must wait for all of them. It is the simulated-time analogue of
// sync.WaitGroup; all methods must be called in engine context.
type WaitGroup struct {
	count  int
	waiter *Proc
}

// Add increments the counter by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 && wg.waiter != nil {
		w := wg.waiter
		wg.waiter = nil
		w.Unpark()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks p until the counter reaches zero. At most one proc may wait on
// a WaitGroup at a time.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	if wg.waiter != nil {
		panic("sim: concurrent WaitGroup.Wait")
	}
	wg.waiter = p
	p.Park()
}
