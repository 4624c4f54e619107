package exec

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// SpinLock is a test-and-set spin lock living at a real address in
// simulated memory, so lock traffic generates the coherence ping-pong that
// serializes contended directories (the left edge of the paper's Fig. 4a,
// where there are fewer directories than cores).
//
// Acquisition uses test-and-set with bounded exponential backoff. Backoff
// periods release the core when other threads are queued on it, so a
// spinner can never deadlock against a lock holder waiting for the same
// core.
type SpinLock struct {
	addr   mem.Addr
	holder *Thread

	// contention statistics for reports
	Acquisitions uint64
	Contended    uint64
}

// spinBackoffStart and spinBackoffMax bound the retry cadence. The values
// trade simulation fidelity against event count; they are small relative
// to a directory scan (thousands of cycles), so lock wait times remain
// accurate to within a backoff quantum.
const (
	spinBackoffStart sim.Cycles = 100
	spinBackoffMax   sim.Cycles = 3200
)

// NewSpinLock allocates a lock in the machine's memory image. Each lock
// gets its own cache line, as any competent implementation would.
func (s *System) NewSpinLock(name string) *SpinLock {
	a, err := s.mach.Image().Alloc(8, 64)
	if err != nil {
		panic(fmt.Sprintf("exec: allocating lock %q: %v", name, err))
	}
	l := &SpinLock{addr: a}
	s.locks = append(s.locks, l)
	return l
}

// Lock acquires l, charging test-and-set attempts (coherent writes) and
// backoff to the calling thread.
func (t *Thread) Lock(l *SpinLock) {
	backoff := spinBackoffStart
	for {
		// Test-and-set: a write access whether or not it succeeds —
		// that is what makes contended spin locks expensive.
		t.Store(l.addr, 8)
		if l.holder == nil {
			l.holder = t
			l.Acquisitions++
			return
		}
		l.Contended++
		t.spinWait(backoff)
		if backoff < spinBackoffMax {
			backoff *= 2
		}
	}
}

// TryLock attempts one acquisition without spinning; it reports success.
func (t *Thread) TryLock(l *SpinLock) bool {
	t.Store(l.addr, 8)
	if l.holder == nil {
		l.holder = t
		l.Acquisitions++
		return true
	}
	l.Contended++
	return false
}

// Unlock releases l. Only the holder may unlock; anything else is a bug in
// the simulated program.
func (t *Thread) Unlock(l *SpinLock) {
	if l.holder != t {
		panic(fmt.Sprintf("exec: thread %q unlocking lock held by %v", t.name, holderName(l)))
	}
	l.holder = nil
	t.Store(l.addr, 8)
}

// Held reports whether the lock is currently held (for tests).
func (l *SpinLock) Held() bool { return l.holder != nil }

func holderName(l *SpinLock) string {
	if l.holder == nil {
		return "nobody"
	}
	return l.holder.name
}
