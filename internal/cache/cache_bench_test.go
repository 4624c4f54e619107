package cache

import (
	"fmt"
	"testing"

	"repro/internal/topology"
)

// sinkHit keeps the benchmarked calls' results live.
var sinkHit bool

// sameSet returns n distinct lines that c maps to one set.
func sameSet(c *Cache, n int) []Line {
	lines := []Line{0}
	for l := Line(1); len(lines) < n; l++ {
		if setOf(c, l) == setOf(c, 0) {
			lines = append(lines, l)
		}
	}
	return lines
}

// BenchmarkCacheOps measures one set operation at the hierarchy's real
// geometries (the AMD16 L1, L2 and L3): a hit on the most recently used
// way, a hit on the least recently used way of a full set (the longest
// scan and shift), and a miss that evicts (a failed lookup, then an
// insert). It drives the forms the machine model calls, LookupAt and
// InsertNewAt, and computes each line's Index inside the timed loop, so
// the page hash the machine hoists out is still charged here. Every case
// must report 0 allocs/op.
func BenchmarkCacheOps(b *testing.B) {
	for _, g := range []topology.CacheGeom{
		{Size: 64 << 10, LineSize: 64, Assoc: 2},
		{Size: 512 << 10, LineSize: 64, Assoc: 16},
		{Size: 2 << 20, LineSize: 64, Assoc: 32},
	} {
		name := fmt.Sprintf("%dway", g.Assoc)
		b.Run(name+"/mru-hit", func(b *testing.B) {
			c := New(g)
			lines := sameSet(c, g.Assoc)
			for _, l := range lines {
				c.Insert(l, false)
			}
			mru := lines[len(lines)-1]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkHit = c.LookupAt(mru, IndexOf(mru))
			}
		})
		b.Run(name+"/lru-hit", func(b *testing.B) {
			// Looking up the LRU way of a full set makes the next line
			// LRU, so cycling through the set in insertion order hits
			// way 0 every time.
			c := New(g)
			lines := sameSet(c, g.Assoc)
			for _, l := range lines {
				c.Insert(l, false)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := lines[i%len(lines)]
				sinkHit = c.LookupAt(l, IndexOf(l))
			}
		})
		b.Run(name+"/miss-evict", func(b *testing.B) {
			// Cycling assoc+1 lines through one set misses every time.
			c := New(g)
			lines := sameSet(c, g.Assoc+1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := lines[i%len(lines)]
				if idx := IndexOf(l); !c.LookupAt(l, idx) {
					_, _, sinkHit = c.InsertNewAt(l, idx, false)
				}
			}
		})
	}
}
