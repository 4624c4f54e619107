package machine

import (
	"testing"

	"repro/internal/sim"
)

// refMeter is the naive reference for bwMeter: an unbounded map of
// per-window demand, with the deficit carry computed from the head (the
// highest window accounted so far) as the meter documents it. A
// reservation 64 or more windows past or behind the head is charged
// against the drained backlog without being accounted.
type refMeter struct {
	service  sim.Cycles
	capacity uint32
	count    map[uint64]uint32
	head     uint64
	headSet  bool
}

func newRefMeter(service sim.Cycles) *refMeter {
	r := &refMeter{service: service, count: make(map[uint64]uint32)}
	if service > 0 {
		r.capacity = uint32(bwWindow / service)
	}
	return r
}

// backlog is the excess the head window hands to window w, less capacity
// per idle window in between.
func (r *refMeter) backlog(w uint64) uint32 {
	if !r.headSet || w <= r.head {
		return 0
	}
	c := r.count[r.head]
	if c <= r.capacity {
		return 0
	}
	excess := uint64(c - r.capacity)
	drained := (w - r.head - 1) * uint64(r.capacity)
	if drained >= excess {
		return 0
	}
	return uint32(excess - drained)
}

func (r *refMeter) delay(n uint32) sim.Cycles {
	if n <= r.capacity {
		return 0
	}
	return sim.Cycles(n-r.capacity) * r.service
}

func (r *refMeter) reserve(at sim.Time) sim.Cycles {
	if r.capacity == 0 {
		return 0
	}
	w := uint64(at) / bwWindow
	if r.headSet && (w >= r.head+64 || w+64 <= r.head) {
		return r.delay(r.backlog(w) + 1)
	}
	c, ok := r.count[w]
	if !ok {
		c = r.backlog(w)
	}
	if !r.headSet || w > r.head {
		r.head, r.headSet = w, true
	}
	c++
	r.count[w] = c
	return r.delay(c)
}

// FuzzBWMeter drives the meter and the reference with the same
// reservations and compares every returned delay. Each 3-byte op is a
// kind and a 16-bit argument v:
//
//	0  a window up to 63 behind the head
//	1  a window up to 63 past the head
//	2  a window 64+v past the head: the far-future class whose handling
//	   once evicted the live head window's demand
//	3  reset
//	4  a burst of v%32+1 reservations in the head window
//	5  a window 64+v%64 behind the head, when there is one: the far-past
//	   class whose handling once evicted the live head window's demand
//
// Outside far reservations, every window stays within 63 of the highest
// one accounted, inside the meter's 64-slot ring, where its demand is
// exact.
func FuzzBWMeter(f *testing.F) {
	f.Add(uint8(112), []byte{4, 0, 31, 1, 0, 1, 4, 0, 31, 2, 0, 0, 1, 0, 2, 0, 0, 0})
	f.Add(uint8(112), []byte{4, 0, 31, 2, 0, 5, 4, 0, 31, 0, 0, 70, 3, 0, 0, 4, 0, 3})
	f.Add(uint8(0), []byte{4, 0, 20, 2, 1, 0, 1, 0, 63, 0, 0, 63, 4, 0, 9})
	f.Add(uint8(16), []byte{1, 0, 63, 1, 0, 37, 4, 0, 11, 5, 0, 0, 1, 0, 1, 5, 0, 30, 4, 0, 2})
	f.Fuzz(func(t *testing.T, svc uint8, ops []byte) {
		// Services 512..8672 cycles: capacities 8 down to 0 per window.
		service := sim.Cycles(512 + 32*int(svc))
		m := newBWMeter(service)
		ref := newRefMeter(service)
		var off sim.Time
		check := func(w uint64) {
			t.Helper()
			at := sim.Time(w)*bwWindow + off%bwWindow
			off += 997
			if got, want := m.reserve(at), ref.reserve(at); got != want {
				t.Fatalf("service=%d: reserve(%d) in window %d (head %d) = %d, reference %d",
					service, at, w, ref.head, got, want)
			}
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			v := uint64(ops[1])<<8 | uint64(ops[2])
			switch ops[0] % 6 {
			case 0:
				check(ref.head - min(v%64, ref.head))
			case 1:
				check(ref.head + v%64)
			case 2:
				check(ref.head + 64 + v)
			case 3:
				m.reset()
				ref = newRefMeter(service)
			case 4:
				for range v%32 + 1 {
					check(ref.head)
				}
			case 5:
				if back := 64 + v%64; ref.head >= back {
					check(ref.head - back)
				}
			}
		}
	})
}
