package machine

import (
	"testing"

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
