package machine

import "repro/internal/sim"

// bwMeter models a bandwidth-limited resource with windowed accounting:
// time is divided into fixed windows, each admitting capacity transfers;
// transfers beyond capacity are delayed by their overflow position times
// the service interval.
//
// This formulation is deliberately order-independent in the access
// timestamp: simulated threads batch memory accesses and issue them with
// future-dated timestamps, so a cursor-style "next free slot" model would
// let one thread's in-flight batch delay every other thread's
// present-time accesses. Windowed demand counting charges queueing where
// the demand lands in time, whatever order the simulator discovers it.
//
// # Deficit carry
//
// A purely window-local model would reset demand at every window
// boundary: a resource offered 2× its capacity forever would charge each
// window's overflow but never build a backlog, so sustained saturation
// would underestimate queueing. Instead, a window that ends over capacity
// hands its unserved excess to the next accounted window as that
// window's starting demand, drained at capacity transfers per
// intervening idle window. The backlog is computed in O(1) from the most
// recent accounted window (headWin) — no per-event allocation, no scan.
//
// Carry trades the strict order-independence above for backlog fidelity:
// a window's starting demand depends on which earlier windows were
// already accounted when it was first touched. The simulation engine is
// single-threaded and discovers accesses in a deterministic order, so
// results remain exactly reproducible; the meters are reset by
// Machine.Reset/FlushAll so arena-reused cells start from the same blank
// state as a fresh machine. A window whose demand stays within capacity
// carries nothing, so a machine that never saturates a window sees the
// window-local delays exactly.
type bwMeter struct {
	service  sim.Cycles // cycles per transfer
	capacity uint32     // transfers admitted per window without delay
	headWin  uint64     // highest window index accounted so far
	headSet  bool       // whether headWin is valid
	ring     [64]bwSlot
}

type bwSlot struct {
	idx   uint64
	count uint32
}

// bwWindow is the accounting window length in cycles.
const bwWindow = 4096

func newBWMeter(service sim.Cycles) bwMeter {
	m := bwMeter{service: service}
	if service > 0 {
		m.capacity = uint32(bwWindow / service)
	}
	return m
}

// reserve records one transfer at time at and returns its queueing delay.
//
//o2:hotpath
func (b *bwMeter) reserve(at sim.Time) sim.Cycles {
	if b.capacity == 0 {
		return 0
	}
	w := uint64(at) / bwWindow
	if b.headSet && max(w, b.headWin)-min(w, b.headWin) >= uint64(len(b.ring)) {
		// An access ≥64 windows past or behind the head would alias a
		// ring slot that may still hold the live head window's demand —
		// materializing it would evict that count before its excess was
		// ever carried, silently dropping backlog, and a future-dated one
		// would teleport headWin so far forward that present-time
		// accesses in the still-live window restart from zero. Charge the
		// far access against the drained backlog (none behind the head)
		// without touching the ring or the head: at that horizon the
		// backlog has almost always drained to zero anyway, and the one
		// approximation — same-far-window accesses not seeing each
		// other's demand — is harmless next to losing the live backlog.
		cnt := b.carryInto(w) + 1
		if cnt <= b.capacity {
			return 0
		}
		return sim.Cycles(cnt-b.capacity) * b.service
	}
	slot := &b.ring[w%uint64(len(b.ring))]
	if slot.idx != w {
		*slot = bwSlot{idx: w, count: b.carryInto(w)}
	}
	if !b.headSet || w > b.headWin {
		b.headWin = w
		b.headSet = true
	}
	slot.count++
	if slot.count <= b.capacity {
		return 0
	}
	return sim.Cycles(slot.count-b.capacity) * b.service
}

// carryInto computes the backlog window w inherits from earlier demand:
// the most recent accounted window's excess over capacity, minus capacity
// transfers drained per idle window in between. O(1): only the head
// window can hand excess forward (any other slot's window is older than head
// and its excess has, by induction, already been folded into head's
// starting count when head was first touched).
//
//o2:hotpath
func (b *bwMeter) carryInto(w uint64) uint32 {
	if !b.headSet || b.headWin >= w {
		// Nothing accounted yet, or w is at/behind the head (an
		// out-of-order timestamp into the past); backlog from even
		// earlier windows was already folded forward when they were live.
		return 0
	}
	src := b.headWin
	s := &b.ring[src%uint64(len(b.ring))]
	if s.idx != src || s.count <= b.capacity {
		return 0
	}
	excess := uint64(s.count - b.capacity)
	drained := (w - src - 1) * uint64(b.capacity)
	if drained >= excess {
		return 0
	}
	return uint32(excess - drained)
}

// reset clears all accounted demand and backlog.
func (b *bwMeter) reset() {
	for i := range b.ring {
		b.ring[i] = bwSlot{}
	}
	b.headWin = 0
	b.headSet = false
}
