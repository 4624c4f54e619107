package cache

import (
	"testing"

	"repro/internal/topology"
)

// setOf returns the set c selects for l.
func setOf(c *Cache, l Line) int { return int(uint64(IndexOf(l)) & c.mask) }

// Tiny caches whose whole index fits in the page offset must use plain
// modular indexing; paper-scale caches must hash the page bits.
func TestIndexingModeSelection(t *testing.T) {
	small := New(topology.CacheGeom{Size: 4 << 10, LineSize: 64, Assoc: 1}) // 64 sets
	for l := Line(0); l < 1<<16; l += 13 {
		if got, want := setOf(small, l), int(l&63); got != want {
			t.Fatalf("64-set cache: line %d in set %d, want modular set %d", l, got, want)
		}
	}
	big := New(topology.CacheGeom{Size: 512 << 10, LineSize: 64, Assoc: 16}) // 512 sets
	hashed := 0
	for l := Line(0); l < 1<<16; l += 13 {
		if setOf(big, l) != int(l&511) {
			hashed++
		}
	}
	if hashed == 0 {
		t.Error("512-set cache should hash page bits")
	}
}

// PageIndex is the Index of the page's first line, and every line of the
// page adds only its offset.
func TestPageIndexComposesIndexOf(t *testing.T) {
	for _, page := range []Line{0, 1, 7, 12345, 1 << 24} {
		base := page * PageLines
		pi := PageIndex(base)
		if pi%PageLines != 0 {
			t.Fatalf("page %d: PageIndex %#x has offset bits set", page, pi)
		}
		for i := Line(0); i < PageLines; i++ {
			if PageIndex(base+i) != pi || IndexOf(base+i) != pi|Index(i) {
				t.Fatalf("page %d line +%d: Index disagrees with PageIndex|offset", page, i)
			}
		}
	}
}

func TestHashedIndexPreservesWithinPageLocality(t *testing.T) {
	// Consecutive lines of one 4 KB page must land in consecutive sets
	// (mod the page), exactly as a physically-indexed cache sees them.
	c := New(topology.CacheGeom{Size: 512 << 10, LineSize: 64, Assoc: 16})
	base := Line(12345 * PageLines) // an arbitrary page boundary
	s0 := setOf(c, base)
	for i := 1; i < PageLines; i++ {
		want := (s0 &^ (PageLines - 1)) | ((s0 + i) & (PageLines - 1))
		// Within a page only the low 6 set-index bits advance.
		got := setOf(c, base+Line(i))
		if got != want {
			t.Fatalf("line +%d: set %d, want %d (within-page locality broken)", i, got, want)
		}
	}
}

func TestHashedIndexSpreadsAlignedObjects(t *testing.T) {
	// The pathology the hash exists to kill: N objects of exactly
	// sets×lineSize bytes, all identically aligned. Under modular
	// indexing, line 0 of every object lands in the same set. A
	// physically-indexed 512-set cache has sets/PageLines = 8 page
	// colors, so hashed indexing cannot do better than spreading the
	// first lines over those 8 colors — but it must actually use them
	// all instead of stacking everything in one set.
	c := New(topology.CacheGeom{Size: 512 << 10, LineSize: 64, Assoc: 16})
	sets := c.geom.Sets()
	colors := sets / PageLines
	objLines := Line(sets) // one line per set under modular indexing
	counts := make(map[int]int)
	const objects = 64
	for o := 0; o < objects; o++ {
		first := Line(o) * objLines
		counts[setOf(c, first)]++
	}
	if len(counts) < colors/2 {
		t.Fatalf("first lines use only %d sets; expected close to %d colors", len(counts), colors)
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	// Under modular indexing max would be 64 (all in one set); random
	// coloring gives mean 8 per color with modest deviation.
	if max > 3*objects/colors {
		t.Fatalf("aligned objects pile up: %d of %d first-lines share a set (mean %d)",
			max, objects, objects/colors)
	}
}

func TestHashedIndexDistributionUniform(t *testing.T) {
	// Streaming a large contiguous region must fill sets evenly: the
	// max/mean set occupancy stays small.
	c := New(topology.CacheGeom{Size: 512 << 10, LineSize: 64, Assoc: 16})
	sets := c.geom.Sets()
	occ := make([]int, sets)
	const span = 1 << 15 // 32k lines = 2 MB
	for l := Line(0); l < span; l++ {
		occ[setOf(c, l)]++
	}
	mean := span / sets
	for s, n := range occ {
		if n > 3*mean || n < mean/3 {
			t.Fatalf("set %d holds %d lines, mean %d: distribution skewed", s, n, mean)
		}
	}
}

func TestHashedIndexDeterministic(t *testing.T) {
	a := New(topology.CacheGeom{Size: 512 << 10, LineSize: 64, Assoc: 16})
	b := New(topology.CacheGeom{Size: 512 << 10, LineSize: 64, Assoc: 16})
	for l := Line(0); l < 4096; l += 7 {
		if setOf(a, l) != setOf(b, l) {
			t.Fatalf("set index not deterministic for line %d", l)
		}
	}
}
