package cache

import (
	"testing"

	"repro/internal/topology"
)

// Paper-scale caches must use hashed (page-colored) indexing; tiny caches
// whose whole index fits in the page offset must not.
func TestIndexingModeSelection(t *testing.T) {
	small := New(topology.CacheGeom{Size: 4 << 10, LineSize: 64, Assoc: 1}) // 64 sets
	if small.hashed {
		t.Error("64-set cache should use plain modular indexing")
	}
	big := New(topology.CacheGeom{Size: 512 << 10, LineSize: 64, Assoc: 16}) // 512 sets
	if !big.hashed {
		t.Error("512-set cache should hash page bits")
	}
}

func TestHashedIndexPreservesWithinPageLocality(t *testing.T) {
	// Consecutive lines of one 4 KB page must land in consecutive sets
	// (mod the page), exactly as a physically-indexed cache sees them.
	c := New(topology.CacheGeom{Size: 512 << 10, LineSize: 64, Assoc: 16})
	base := Line(12345 * PageLines) // an arbitrary page boundary
	s0 := c.setOf(base)
	for i := 1; i < PageLines; i++ {
		want := (s0 &^ (PageLines - 1)) | ((s0 + i) & (PageLines - 1))
		// Within a page only the low 6 set-index bits advance.
		got := c.setOf(base + Line(i))
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
		counts[c.setOf(first)]++
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
		occ[c.setOf(l)]++
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
		if a.setOf(l) != b.setOf(l) {
			t.Fatalf("set index not deterministic for line %d", l)
		}
	}
}
