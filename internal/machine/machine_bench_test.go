package machine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkL1Hit measures the common-case access: a load that hits the
// core's L1. This is the fast path the hot-path refactor keeps
// allocation-free (the acceptance gate is 0 allocs/op).
func BenchmarkL1Hit(b *testing.B) {
	m := MustNew(topology.Tiny8(), 1<<20)
	const addr = mem.Addr(4096)
	at := sim.Time(0)
	at += m.Access(0, addr, false, at) // prime: L1 now holds the line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += m.Access(0, addr, false, at)
	}
}

// BenchmarkL1HitStore measures the store fast path: an L1 hit by the line's
// existing sole owner, which still has to consult the coherence directory.
func BenchmarkL1HitStore(b *testing.B) {
	m := MustNew(topology.Tiny8(), 1<<20)
	const addr = mem.Addr(4096)
	at := sim.Time(0)
	at += m.Access(0, addr, true, at) // prime: core 0 owns the line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += m.Access(0, addr, true, at)
	}
}

// BenchmarkRemoteMiss measures the coherence slow path: two cores on
// different chips ping-ponging one line, so every access is a remote fetch
// or an invalidating write.
func BenchmarkRemoteMiss(b *testing.B) {
	cfg := topology.Tiny8()
	m := MustNew(cfg, 1<<20)
	writer, reader := 0, cfg.CoresPerChip // first cores of chips 0 and 1
	const addr = mem.Addr(4096)
	at := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += m.Access(writer, addr, true, at)  // invalidates reader's copy
		at += m.Access(reader, addr, false, at) // remote fetch from writer's chip
	}
}

// BenchmarkAccessRangeScan measures the line-batched range path the
// execution substrate's cost batches drive: one 512-byte sector load per
// iteration, the granularity of the FAT lookup loop.
func BenchmarkAccessRangeScan(b *testing.B) {
	m := MustNew(topology.Tiny8(), 1<<20)
	const base = mem.Addr(8192)
	at := sim.Time(0)
	at += m.AccessRange(0, base, 512, false, at) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += m.AccessRange(0, base, 512, false, at)
	}
}

// conflictingSectors returns n page-aligned 512-byte sectors whose lines
// share core 0's L1 sets (and so, at AMD16's equal set counts, its L2
// sets) line for line.
func conflictingSectors(m *Machine, n int) []mem.Addr {
	mask := cache.Index(m.L1(0).Geom().Sets() - 1)
	sets := func(page cache.Line) cache.Index { return cache.PageIndex(page*cache.PageLines) & mask }
	var out []mem.Addr
	for p := cache.Line(1); len(out) < n; p++ {
		if sets(p) == sets(1) {
			out = append(out, mem.Addr(p*cache.PageLines)*mem.Addr(m.LineSize()))
		}
	}
	return out
}

// BenchmarkAccessRangeAMD16 measures one 512-byte sector load at AMD16's
// geometry on each side of the L1-hit split, reporting host ns per line:
//   - mru-hit re-reads one sector, so every line hits its L1 set's most
//     recently used way and finishes without an L2 call;
//   - lru-hit alternates two sectors of the same L1 sets, so every line
//     hits the 2-way L1's less recent way and refreshes the L2;
//   - l2-hit cycles three such sectors, so each thrashes the others out
//     of the L1 and every line misses L1 and hits L2.
//
// Each case must report 0 allocs/op.
func BenchmarkAccessRangeAMD16(b *testing.B) {
	const sector = 512
	for _, tc := range []struct {
		name    string
		sectors int
	}{{"mru-hit", 1}, {"lru-hit", 2}, {"l2-hit", 3}} {
		b.Run(tc.name, func(b *testing.B) {
			m := MustNew(topology.AMD16(), 1<<24)
			addrs := conflictingSectors(m, tc.sectors)
			var at sim.Time
			for _, a := range addrs {
				at += m.AccessRange(0, a, sector, false, at) // prime
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at += m.AccessRange(0, addrs[i%len(addrs)], sector, false, at)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sector/m.LineSize()), "ns/line")
		})
	}
}

// wideFanOutMachine primes a NUMA256 machine so one line is shared by
// every core, returning the machine and the writing core's next issue
// time. Each benchmark iteration re-shares and re-collapses the set.
func wideFanOutMachine(b *testing.B) (*Machine, sim.Time) {
	b.Helper()
	m := MustNew(topology.NUMA256(), 1<<24)
	const addr = mem.Addr(4096)
	at := sim.Time(0)
	for core := 0; core < m.NumCores(); core++ {
		at += sim.Time(m.Access(core, addr, false, at))
	}
	return m, at
}

// BenchmarkWideInvalidationFanOut measures the 256-core store slow path:
// one write collapsing a holder set that spans all five directory words,
// then the readers re-sharing the line. This is the path the multi-word
// bitset keeps allocation-free; TestWideFanOutAllocs pins 0 allocs/op.
// One op is a whole cycle — 1 store plus 255 re-share loads — so the
// per-access cost is reported as ns/access.
func BenchmarkWideInvalidationFanOut(b *testing.B) {
	m, at := wideFanOutMachine(b)
	const addr = mem.Addr(4096)
	ncores := m.NumCores()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += sim.Time(m.Access(0, addr, true, at)) // invalidate all sharers
		for core := 1; core < ncores; core++ {
			at += sim.Time(m.Access(core, addr, false, at)) // re-share
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ncores), "ns/access")
}

// TestWideFanOutAllocs is the allocation gate on the 256-core
// invalidation fan-out: the whole share/collapse cycle — wide directory
// probes, word-scratch copies, cross-word cache invalidations — must not
// allocate.
func TestWideFanOutAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := MustNew(topology.NUMA256(), 1<<24)
	const addr = mem.Addr(4096)
	var at sim.Time
	for core := 0; core < m.NumCores(); core++ {
		at += sim.Time(m.Access(core, addr, false, at))
	}
	ncores := m.NumCores()
	allocs := testing.AllocsPerRun(50, func() {
		at += sim.Time(m.Access(0, addr, true, at))
		for core := 1; core < ncores; core++ {
			at += sim.Time(m.Access(core, addr, false, at))
		}
	})
	if allocs != 0 {
		t.Fatalf("wide invalidation fan-out allocates %.1f times per cycle, want 0", allocs)
	}
}
