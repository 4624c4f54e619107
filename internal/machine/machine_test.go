package machine

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/perfctr"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

func newAMD(t testing.TB) *Machine {
	t.Helper()
	m, err := New(topology.AMD16(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestColdMissThenL1Hit(t *testing.T) {
	m := newAMD(t)
	addr := mem.Addr(4096)
	lat1 := m.Access(0, addr, false, 0)
	if lat1 < m.cfg.Lat.DRAMLocal {
		t.Fatalf("cold miss latency %d below DRAM minimum %d", lat1, m.cfg.Lat.DRAMLocal)
	}
	lat2 := m.Access(0, addr, false, lat1)
	if lat2 != m.cfg.Lat.L1Hit {
		t.Fatalf("second access latency %d, want L1 hit %d", lat2, m.cfg.Lat.L1Hit)
	}
	c := m.Counters().Snapshot(0)
	if c.DRAMLoads != 1 || c.Loads != 2 || c.L1Miss != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestRemoteCacheFetchSameChip(t *testing.T) {
	m := newAMD(t)
	addr := mem.Addr(4096)
	m.Access(0, addr, false, 0) // core 0 (chip 0) now holds it
	lat := m.Access(1, addr, false, 1000)
	if lat != m.cfg.Lat.RemoteCacheSameChip {
		t.Fatalf("same-chip remote fetch = %d, want %d", lat, m.cfg.Lat.RemoteCacheSameChip)
	}
	if m.Counters().Snapshot(1).RemoteFetches != 1 {
		t.Fatal("remote fetch not counted")
	}
}

func TestRemoteCacheFetchOtherChip(t *testing.T) {
	m := newAMD(t)
	addr := mem.Addr(4096)
	m.Access(0, addr, false, 0)            // chip 0 holds it
	lat := m.Access(15, addr, false, 1000) // core 15 is chip 3, diagonal from 0
	want := m.cfg.RemoteCacheLatency(3, 0)
	if lat != want {
		t.Fatalf("cross-chip fetch = %d, want %d", lat, want)
	}
	if lat <= m.cfg.Lat.RemoteCacheSameChip {
		t.Fatal("cross-chip fetch should cost more than same-chip")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	m := newAMD(t)
	addr := mem.Addr(4096)
	m.Access(0, addr, false, 0)
	m.Access(1, addr, false, 100)
	m.Access(2, addr, false, 200)
	// Write from core 0 must invalidate cores 1 and 2.
	m.Access(0, addr, true, 300)
	l := cache.LineOf(addr, m.LineSize())
	if m.L2(1).Contains(l) || m.L2(2).Contains(l) {
		t.Fatal("sharers still resident after invalidating write")
	}
	if m.Counters().Snapshot(0).Invalidations == 0 {
		t.Fatal("invalidations not counted")
	}
	// The next read from core 1 must fetch remotely again.
	lat := m.Access(1, addr, false, 400)
	if lat < m.cfg.Lat.RemoteCacheSameChip {
		t.Fatalf("read after invalidate was local (%d cycles)", lat)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVictimL3(t *testing.T) {
	// Stream enough lines through one core to overflow its L2; the
	// victims must land in the chip's L3 and hit there at L3 latency.
	m := newAMD(t)
	l2Lines := m.cfg.L2.Size / m.cfg.L2.LineSize
	base := mem.Addr(1 << 20)
	var at sim.Time
	// Touch 2× the L2 capacity in distinct lines.
	for i := 0; i < 2*l2Lines; i++ {
		at += m.Access(0, base+mem.Addr(i*m.LineSize()), false, at)
	}
	if m.L3(0).Len() == 0 {
		t.Fatal("L2 victims never spilled into L3")
	}
	// Some streamed line was evicted from L2 into L3 (hashed set
	// indexing makes the exact victim configuration-dependent); it must
	// hit there at L3 latency.
	var victim mem.Addr
	found := false
	for i := 0; i < 2*l2Lines && !found; i++ {
		a := base + mem.Addr(i*m.LineSize())
		if m.L3(0).Contains(cache.LineOf(a, m.LineSize())) {
			victim, found = a, true
		}
	}
	if !found {
		t.Fatal("no streamed line resident in L3")
	}
	before := m.Counters().Snapshot(0)
	lat := m.Access(0, victim, false, at)
	if lat != m.cfg.Lat.L3Hit {
		t.Fatalf("victim hit latency = %d, want L3 %d", lat, m.cfg.Lat.L3Hit)
	}
	d := m.Counters().Snapshot(0).Sub(before)
	if d.L3Loads != 1 {
		t.Fatalf("L3 load not counted: %+v", d)
	}
	// Exclusivity: the line must have left L3 after promotion.
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDRAMQueueing(t *testing.T) {
	m := newAMD(t)
	// Saturate one chip's memory controller within a single accounting
	// window: demand beyond window/service lines must see queueing
	// delays, and the delays must grow with overflow depth.
	svc := m.cfg.Lat.DRAMServiceInterval
	baseline := m.Access(0, 0, false, 0) // cold local DRAM, no contention
	var sawQueue bool
	var prev sim.Cycles
	// Lines homed on chip 0 are every 4th line (4-chip interleave).
	for i := 1; i < 600; i++ {
		addr := mem.Addr(i * 4 * 64)
		lat := m.Access(0, addr, false, 0) // all at t=0: same window
		if lat > baseline {
			if !sawQueue && lat != baseline+svc {
				t.Fatalf("first overflow delay = %d, want %d", lat-baseline, svc)
			}
			if lat < prev {
				t.Fatalf("queueing delay shrank under growing demand: %d after %d", lat, prev)
			}
			sawQueue = true
			prev = lat
		}
	}
	if !sawQueue {
		t.Fatal("controller never queued despite saturation")
	}
	// The same demand far in the future (a different window) is unqueued.
	lat := m.Access(2, mem.Addr(9999*4*64), false, 50_000_000)
	if lat != baseline {
		t.Fatalf("fresh window access = %d, want uncontended %d", lat, baseline)
	}
}

func TestDRAMQueueingOrderIndependent(t *testing.T) {
	// A future-dated access (from a thread's in-flight batch) must not
	// delay a present-time access: queueing is accounted per window.
	m := newAMD(t)
	m.Access(0, mem.Addr(4*64), false, 1_000_000) // batched far ahead
	lat := m.Access(1, mem.Addr(8*64), false, 0)  // present time, same home chip
	if lat != m.cfg.Lat.DRAMLocal {
		t.Fatalf("present-time access paid %d, want uncontended %d (future access leaked into past)",
			lat, m.cfg.Lat.DRAMLocal)
	}
}

func TestDRAMHomeInterleaving(t *testing.T) {
	m := newAMD(t)
	// Distant bank (chip 0 → chip 3) must cost 336, local must cost 230.
	// Find a line homed on chip 0 and one homed on chip 3.
	local := mem.Addr(0)    // line 0 → chip 0
	far := mem.Addr(3 * 64) // line 3 → chip 3
	if m.homeChip(0) != 0 || m.homeChip(3) != 3 {
		t.Fatal("interleaving changed; fix test addresses")
	}
	if lat := m.Access(0, local, false, 0); lat != 230 {
		t.Fatalf("local DRAM = %d, want 230", lat)
	}
	m.FlushAll()
	if lat := m.Access(0, far, false, 0); lat != 336 {
		t.Fatalf("most distant DRAM = %d, want 336 (paper §5)", lat)
	}
}

func TestAccessRangeChargesPerLine(t *testing.T) {
	m := newAMD(t)
	// 4 lines, all cold.
	lat := m.Load(0, 0, 4*64, 0)
	c := m.Counters().Snapshot(0)
	if c.Loads != 4 {
		t.Fatalf("Loads = %d, want 4", c.Loads)
	}
	if lat < 4*m.cfg.Lat.DRAMLocal {
		t.Fatalf("range latency %d too small for 4 cold lines", lat)
	}
	// Warm: 4 L1 hits.
	lat = m.Load(0, 0, 4*64, lat)
	if lat != 4*m.cfg.Lat.L1Hit {
		t.Fatalf("warm range = %d, want %d", lat, 4*m.cfg.Lat.L1Hit)
	}
}

func TestAccessRangePartialLines(t *testing.T) {
	m := newAMD(t)
	// 100 bytes starting mid-line touches two lines.
	m.Load(0, 32, 100, 0)
	if got := m.Counters().Snapshot(0).Loads; got != 3 {
		t.Fatalf("Loads = %d, want 3 (bytes 32..131 span lines 0,1,2)", got)
	}
}

func TestStallCyclesAccumulate(t *testing.T) {
	m := newAMD(t)
	lat := m.Load(0, 0, 64, 0)
	if got := m.Counters().Snapshot(0).StallCycles; got != uint64(lat) {
		t.Fatalf("StallCycles = %d, want %d", got, lat)
	}
}

func TestFlushAll(t *testing.T) {
	m := newAMD(t)
	m.Load(0, 0, 1024, 0)
	m.FlushAll()
	if m.L1(0).Len() != 0 || m.L2(0).Len() != 0 || m.L3(0).Len() != 0 {
		t.Fatal("caches survived FlushAll")
	}
	if m.Directory().TrackedLines() != 0 {
		t.Fatal("directory survived FlushAll")
	}
	lat := m.Access(0, 0, false, 0)
	if lat < m.cfg.Lat.DRAMLocal {
		t.Fatal("post-flush access did not go to DRAM")
	}
}

func TestMOESIReadDoesNotInvalidateOwner(t *testing.T) {
	m := newAMD(t)
	addr := mem.Addr(4096)
	m.Access(0, addr, true, 0) // core 0 owns dirty
	m.Access(1, addr, false, 100)
	// Owned state: both may hold it after a read.
	l := cache.LineOf(addr, m.LineSize())
	if !m.L2(0).Contains(l) || !m.L2(1).Contains(l) {
		t.Fatal("read should leave owner's copy in place (MOESI Owned)")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsUnderRandomTraffic(t *testing.T) {
	// Property: arbitrary load/store traffic never breaks directory/cache
	// agreement, inclusion, or owner validity.
	cfg := topology.Small()
	f := func(seed uint64) bool {
		m, err := New(cfg, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(seed)
		var at sim.Time
		for i := 0; i < 3000; i++ {
			core := rng.Intn(cfg.NumCores())
			addr := mem.Addr(rng.Intn(256 << 10)) // 8× the L3: heavy eviction traffic
			write := rng.Intn(4) == 0
			at += m.Access(core, addr, write, at)
		}
		return m.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestResidencyReport(t *testing.T) {
	m := newAMD(t)
	obj, err := m.Image().AllocObject("dir0", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	m.Load(0, obj.Base, int(obj.Size), 0)
	r := m.Residency(obj)
	if r.L2Bytes[0] != 32<<10 {
		t.Fatalf("core 0 L2 holds %d bytes, want whole object", r.L2Bytes[0])
	}
	if r.DRAMBytes != 0 {
		t.Fatalf("DRAMBytes = %d, want 0 after full scan", r.DRAMBytes)
	}
	for i := 1; i < 16; i++ {
		if r.L2Bytes[i] != 0 {
			t.Fatalf("core %d should hold nothing", i)
		}
	}
}

func TestHeterogeneousConfigAccepted(t *testing.T) {
	cfg := topology.AMD16()
	cfg.CoreSpeed = make([]float64, 16)
	for i := range cfg.CoreSpeed {
		cfg.CoreSpeed[i] = 1
	}
	cfg.CoreSpeed[0] = 2
	if _, err := New(cfg, 1<<20); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := topology.AMD16()
	cfg.GridW = 5
	if _, err := New(cfg, 1<<20); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestCheckInvariantsCatchesMRUDisagreement reorders one L2 set behind the
// machine's back: lines 0 and 32 share a Tiny8 L1 set and an L2 set, and
// an L2 lookup of the older one leaves the L1's MRU line below the L2's.
func TestCheckInvariantsCatchesMRUDisagreement(t *testing.T) {
	m := MustNew(topology.Tiny8(), 1<<20)
	var at sim.Time
	for _, l := range []cache.Line{0, 32} {
		at += m.Access(0, mem.Addr(l)*mem.Addr(m.LineSize()), false, at)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.L2(0).Lookup(0)
	err := m.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "MRU") {
		t.Fatalf("CheckInvariants = %v, want an MRU disagreement", err)
	}
}

// TestCheckInvariantsCatchesCounterDrift breaks each miss-conservation
// law in turn on a machine whose counters hold every kind of event.
func TestCheckInvariantsCatchesCounterDrift(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drift func(c *perfctr.Counters)
	}{
		{"L1 miss without an L2 outcome", func(c *perfctr.Counters) { c.L1Miss++ }},
		{"L2 miss without an L3 outcome", func(c *perfctr.Counters) { c.L3Loads++ }},
		{"L3 miss without a source", func(c *perfctr.Counters) { c.RemoteFetches++ }},
		{"more L1 misses than accesses", func(c *perfctr.Counters) { c.Loads, c.Stores = 0, 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newAMD(t)
			var at sim.Time
			at += m.Access(0, 4096, true, at)
			at += m.Access(1, 4096, false, at)
			m.Access(0, 8192, false, at)
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			tc.drift(m.Counters().Core(0))
			if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "conservation") {
				t.Fatalf("CheckInvariants = %v, want a conservation failure", err)
			}
		})
	}
}
