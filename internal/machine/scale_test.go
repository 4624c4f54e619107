package machine

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// These tests cover the big-machine additions: the node-count construction
// guard, the saturating bandwidth meters, the wide-directory fan-out
// paths, and full Reset of the new queueing state.

// TestNewRejectsOverwideMachine pins the construction guard that replaced
// the old 64-node directory cap: a machine whose cores+chips exceed the
// sharer bitset's maximum must fail loudly at New, not alias holder bits.
func TestNewRejectsOverwideMachine(t *testing.T) {
	cfg := topology.NUMA256()
	cfg.Chips = 128 // 1024 cores + 128 chips, way past MaxNodes
	cfg.GridW, cfg.GridH = 16, 8
	if _, err := New(cfg, 1<<20); err == nil {
		t.Fatalf("New accepted a machine with %d directory nodes (max %d)",
			cfg.NumCores()+cfg.Chips, coherence.MaxNodes)
	}
}

// TestNewRejectsMemoryBeyondLineRange pins the guard on the 31-bit
// line range of a cache way: a memory limit with more lines than a way
// can name must fail at construction, and the largest one that fits must
// build.
func TestNewRejectsMemoryBeyondLineRange(t *testing.T) {
	cfg := topology.Tiny8()
	ls := cfg.L1.LineSize
	if _, err := NewWithMemLimit(cfg, 1<<20, (cache.MaxLines+1)*ls); err == nil ||
		!strings.Contains(err.Error(), "cache way") {
		t.Fatalf("a %d-line memory limit was not refused: %v", cache.MaxLines+1, err)
	}
	if _, err := NewWithMemLimit(cfg, 1<<20, cache.MaxLines*ls); err != nil {
		t.Fatalf("a %d-line memory limit was refused: %v", cache.MaxLines, err)
	}
}

// TestNUMAPresetsBuild proves each NUMA preset validates and constructs,
// with the directory width the preset implies.
func TestNUMAPresetsBuild(t *testing.T) {
	for _, tc := range []struct {
		cfg    topology.Config
		cores  int
		nwords int
	}{
		{topology.NUMA64(), 64, 2},   // 64 cores + 8 L3s = 72 nodes
		{topology.NUMA128(), 128, 3}, // 144 nodes
		{topology.NUMA256(), 256, 5}, // 288 nodes
	} {
		t.Run(tc.cfg.Name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			m, err := New(tc.cfg, 1<<20)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if m.NumCores() != tc.cores {
				t.Fatalf("NumCores = %d, want %d", m.NumCores(), tc.cores)
			}
			if w := m.Directory().NumWords(); w != tc.nwords {
				t.Fatalf("directory NumWords = %d, want %d", w, tc.nwords)
			}
			if m.link == nil {
				t.Fatal("NUMA preset built without interconnect meters")
			}
		})
	}
}

// TestWideMachineCoherence drives a 256-core machine through a
// shared-line workload wide enough that holder sets cross word
// boundaries — every core reads one line, then one core writes it — and
// checks the cross-word invalidation fan-out plus the structural
// invariants.
func TestWideMachineCoherence(t *testing.T) {
	cfg := topology.NUMA256()
	m, err := New(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const addr = mem.Addr(4096)
	at := sim.Time(0)
	for core := 0; core < m.NumCores(); core++ {
		at += sim.Time(m.Access(core, addr, false, at))
	}
	l := cache.LineOf(addr, m.LineSize())
	if got := m.Directory().SharerCount(l); got != m.NumCores() {
		t.Fatalf("SharerCount = %d after all-core read, want %d", got, m.NumCores())
	}
	// One store must collapse the whole 256-core sharer set.
	m.Access(17, addr, true, at)
	if got := m.Directory().SharerCount(l); got != 1 {
		t.Fatalf("SharerCount = %d after store, want 1", got)
	}
	if !m.Directory().Holds(l, coherence.Node(17)) {
		t.Fatal("writer lost its own copy")
	}
	if got := m.Counters().Total().Invalidations; got != uint64(m.NumCores()-1) {
		t.Fatalf("Invalidations = %d, want %d", got, m.NumCores()-1)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWideMachineInvariantsUnderTraffic runs random load/store traffic on
// a 256-core machine and ends in CheckInvariants, whose count check holds
// the wide directory's tracked-line count to the distinct resident lines.
// Most traffic comes from chip 0's cores over 32 MB, well past their L2s
// plus L3, so L2 victims move into the L3 and L3 victims are written
// back. Cores on both sides of the holder set's 64-node word boundary and
// on the last chip add more; the rest is every core sharing, and storing
// to, a small hot region, so holder sets span all five words and stores
// collapse them.
func TestWideMachineInvariantsUnderTraffic(t *testing.T) {
	m, err := New(topology.NUMA256(), 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	others := []int{60, 63, 64, 67, 248, 255}
	rng := stats.NewRNG(0x256)
	var at sim.Time
	for i := 0; i < 500_000; i++ {
		var core int
		addr := mem.Addr(rng.Intn(32 << 20))
		switch r := rng.Intn(10); {
		case r < 8:
			core = rng.Intn(8) // chip 0
		case r < 9:
			core = others[rng.Intn(len(others))]
		default:
			core = rng.Intn(m.NumCores())
			addr = mem.Addr(rng.Intn(64 << 10))
		}
		at += m.Access(core, addr, rng.Intn(4) == 0, at)
	}
	// A chip-0 core's L2 misses bound its L2 evictions (each miss installs
	// one line), so evictions beyond them are L3 writebacks it caused.
	var evictions, l2Misses uint64
	for core := 0; core < 8; core++ {
		c := m.Counters().Snapshot(core)
		evictions += c.Evictions
		l2Misses += c.L2Miss
	}
	if evictions <= l2Misses {
		t.Fatalf("chip 0: %d evictions for %d L2 misses; the L3 writeback path went unexercised", evictions, l2Misses)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSaturatingMetersChargeAndReset drives a NUMA machine's DRAM
// controllers past capacity, checks that bw-stall counters record the
// queueing, then proves Machine.Reset returns the meters to a state
// byte-identical to a fresh machine's: replaying the same access schedule
// yields the same latencies and counters.
func TestSaturatingMetersChargeAndReset(t *testing.T) {
	cfg := topology.NUMA64()
	run := func(m *Machine) (total sim.Cycles) {
		// A strided read sweep much larger than the caches, issued at a
		// single timestamp so offered traffic lands in one accounting
		// window and saturates the controllers.
		base := mem.Addr(1 << 16)
		for i := 0; i < 20_000; i++ {
			addr := base + mem.Addr(i*m.LineSize())
			total += m.Access(i%m.NumCores(), addr, false, 0)
		}
		return total
	}
	fresh, err := New(cfg, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	want := run(fresh)
	if q := fresh.Counters().Total().DRAMQueueCycles; q == 0 {
		t.Fatal("saturating sweep charged no DRAM queueing")
	}
	wantCtr := fresh.Counters().Total()

	// Same machine, after Reset: must replay identically.
	fresh.Reset()
	if got := run(fresh); got != want {
		t.Fatalf("post-Reset replay cost %d cycles, fresh run cost %d", got, want)
	}
	if got := fresh.Counters().Total(); got != wantCtr {
		t.Fatalf("post-Reset counters diverge:\n got %+v\nwant %+v", got, wantCtr)
	}
}

// TestLinkMeterCharges proves cross-socket traffic queues at the
// interconnect port when LinkServiceInterval is set, and that the same
// schedule on a topology without link metering charges none.
func TestLinkMeterCharges(t *testing.T) {
	crossSocketSweep := func(cfg topology.Config) uint64 {
		m := MustNew(cfg, 1<<26)
		// Core 0 reads lines homed on every other chip, all at t=0: every
		// fill is a remote-home DRAM fetch through that chip's port.
		for i := 0; i < 10_000; i++ {
			m.Access(0, mem.Addr(1<<16+i*m.LineSize()), false, 0)
		}
		return m.Counters().Total().LinkQueueCycles
	}
	if q := crossSocketSweep(topology.NUMA64()); q == 0 {
		t.Fatal("NUMA64 cross-socket sweep charged no link queueing")
	}
	if q := crossSocketSweep(topology.AMD16()); q != 0 {
		t.Fatalf("AMD16 (no link model) charged %d link-queue cycles", q)
	}
}
