package machine

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestBWMeterUnderCapacityFree(t *testing.T) {
	m := newBWMeter(16) // capacity 4096/16 = 256 per window
	for i := 0; i < 256; i++ {
		if d := m.reserve(sim.Time(i)); d != 0 {
			t.Fatalf("transfer %d delayed %d cycles under capacity", i, d)
		}
	}
}

func TestBWMeterOverflowDelaysLinearly(t *testing.T) {
	m := newBWMeter(16)
	for i := 0; i < 256; i++ {
		m.reserve(100)
	}
	for k := 1; k <= 5; k++ {
		if d := m.reserve(100); d != sim.Cycles(k*16) {
			t.Fatalf("overflow %d delayed %d, want %d", k, d, k*16)
		}
	}
}

func TestBWMeterOrderIndependence(t *testing.T) {
	// Demand counted in window W must not affect accesses in windows
	// before W, regardless of the order reservations arrive.
	m := newBWMeter(16)
	m.reserve(100_000) // far-future access first
	if d := m.reserve(0); d != 0 {
		t.Fatalf("past access delayed %d by future reservation", d)
	}
}

func TestBWMeterDisabled(t *testing.T) {
	m := newBWMeter(0)
	for i := 0; i < 10_000; i++ {
		if m.reserve(0) != 0 {
			t.Fatal("disabled meter delayed a transfer")
		}
	}
}

func TestBWMeterReset(t *testing.T) {
	m := newBWMeter(16)
	for i := 0; i < 300; i++ {
		m.reserve(50)
	}
	m.reset()
	if d := m.reserve(50); d != 0 {
		t.Fatalf("reset meter still delayed %d", d)
	}
}

func TestBWMeterDelayMonotoneWithinWindow(t *testing.T) {
	f := func(seed uint8) bool {
		m := newBWMeter(sim.Cycles(seed%32) + 1)
		var prev sim.Cycles
		for i := 0; i < 2000; i++ {
			d := m.reserve(1) // all in one window
			if d < prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBWMeterRingReuse(t *testing.T) {
	// Windows far apart reuse ring slots; counts must not leak between
	// windows that share a slot (w and w+64).
	m := newBWMeter(16)
	for i := 0; i < 300; i++ {
		m.reserve(0) // window 0, overflowing
	}
	at := sim.Time(64 * 4096) // window 64 → same ring slot as window 0
	if d := m.reserve(at); d != 0 {
		t.Fatalf("ring slot leaked %d cycles of demand across windows", d)
	}
}

// --- deficit carry ---

func TestBWMeterCarryRollsBacklogForward(t *testing.T) {
	// 512 transfers into window 0 (capacity 256) leave a 256-transfer
	// backlog. The first transfer of window 1 must see that backlog as its
	// starting demand: delay (256+1-256)*service = 16.
	m := newBWMeter(16)
	for i := 0; i < 512; i++ {
		m.reserve(0)
	}
	if d := m.reserve(sim.Time(bwWindow)); d != 16 {
		t.Fatalf("first transfer after saturated window delayed %d, want 16", d)
	}
}

func TestBWMeterCarryDrainsAtCapacityPerIdleWindow(t *testing.T) {
	// Backlog 512 over capacity; after two fully idle windows (2×256
	// drained) the meter must be clear again.
	m := newBWMeter(16)
	for i := 0; i < 256+512; i++ {
		m.reserve(0)
	}
	if d := m.reserve(sim.Time(3 * bwWindow)); d != 0 {
		t.Fatalf("drained meter still delayed %d", d)
	}
	// One idle window drains only 256 of the 512: residual backlog 256.
	m.reset()
	for i := 0; i < 256+512; i++ {
		m.reserve(0)
	}
	if d := m.reserve(sim.Time(2 * bwWindow)); d != sim.Cycles(257-256)*16 {
		t.Fatalf("partially drained meter delayed %d, want 16", d)
	}
}

func TestBWMeterCarryPastWindowUnaffected(t *testing.T) {
	// Backlog never flows backward: demand accounted in window 2 must not
	// delay a (late-discovered) access in window 1.
	m := newBWMeter(16)
	for i := 0; i < 600; i++ {
		m.reserve(sim.Time(2 * bwWindow))
	}
	if d := m.reserve(sim.Time(bwWindow)); d != 0 {
		t.Fatalf("past window inherited %d cycles from future backlog", d)
	}
}

func TestBWMeterCarryResetClearsBacklog(t *testing.T) {
	m := newBWMeter(16)
	for i := 0; i < 10_000; i++ {
		m.reserve(0)
	}
	m.reset()
	if d := m.reserve(sim.Time(bwWindow)); d != 0 {
		t.Fatalf("reset carry meter still delayed %d", d)
	}
}

func TestBWMeterCarryFarFutureCannotEvictLiveHead(t *testing.T) {
	// Regression: a future-dated access ≥64 windows ahead aliases the
	// head window's ring slot. Materializing it used to overwrite the
	// live window's accumulated count and teleport headWin forward, so
	// present-time accesses in the still-live window restarted from zero
	// — the sustained-overload backlog silently vanished.
	m := newBWMeter(16) // capacity 256/window
	for i := 0; i < 1000; i++ {
		m.reserve(0) // window 0 live, 744 over capacity
	}
	// 128 ≡ 0 (mod 64): this aliases window 0's slot. At that horizon the
	// backlog (744) has long drained (127 idle windows × 256), so it owes
	// no delay — and it must not disturb window 0's live accounting.
	if d := m.reserve(sim.Time(128 * bwWindow)); d != 0 {
		t.Fatalf("far-future access over drained backlog delayed %d", d)
	}
	// Window 0 is still live: the next present-time access is transfer
	// 1001, delayed (1001-256)*16 cycles — not a restart from count 1.
	if d, want := m.reserve(0), sim.Cycles(1001-256)*16; d != want {
		t.Fatalf("live window restarted after far-future alias: delay %d, want %d", d, want)
	}
	// And the carry into window 1 must still reflect the full backlog:
	// starting demand 745, so the first transfer is delayed (746-256)*16.
	if d, want := m.reserve(sim.Time(bwWindow)), sim.Cycles(746-256)*16; d != want {
		t.Fatalf("carry after far-future alias = %d, want %d", d, want)
	}
}

func TestBWMeterCarryFarFutureChargedAgainstBacklog(t *testing.T) {
	// The beyond-horizon access is not free when the backlog genuinely
	// reaches it: with service 2048 (capacity 2/window), an excess of 200
	// drains at 2/window and still owes 200-(65-0-1)*2 = 72 transfers of
	// queueing 65 windows out.
	m := newBWMeter(2048)
	for i := 0; i < 202; i++ {
		m.reserve(0)
	}
	if d, want := m.reserve(sim.Time(65*bwWindow)), sim.Cycles(73-2)*2048; d != want {
		t.Fatalf("far-future access over live backlog delayed %d, want %d", d, want)
	}
}

func TestBWMeterCarryFarPastCannotEvictLiveHead(t *testing.T) {
	// Regression, the mirror of the far-future case: an access ≥64
	// windows behind the head aliases the head window's ring slot.
	// Materializing it used to overwrite the head's count, so the next
	// window inherited no backlog. Capacity 4/window: 12 transfers leave
	// an excess of 8, which window H+1 must start from.
	const h = 100
	m := newBWMeter(1024)
	for i := 0; i < 12; i++ {
		m.reserve(sim.Time(h * bwWindow))
	}
	// H-64 ≡ H (mod 64). Behind the head it carries no backlog: a lone
	// transfer, free at capacity 4.
	if d := m.reserve(sim.Time((h - 64) * bwWindow)); d != 0 {
		t.Fatalf("far-past access delayed %d", d)
	}
	// Window H+1 starts at 8 and its first transfer is the 9th:
	// (9-4)*1024 = 5120 cycles.
	if d, want := m.reserve(sim.Time((h+1)*bwWindow)), sim.Cycles(9-4)*1024; d != want {
		t.Fatalf("carry after far-past alias = %d, want %d", d, want)
	}
}
