package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/topology"
)

func tiny() *Cache {
	// 4 sets × 2 ways of 64-byte lines.
	return New(topology.CacheGeom{Size: 512, LineSize: 64, Assoc: 2})
}

func TestInsertLookup(t *testing.T) {
	c := tiny()
	if c.Lookup(1) {
		t.Fatal("empty cache claims a hit")
	}
	c.Insert(1, false)
	if !c.Lookup(1) {
		t.Fatal("inserted line not found")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny()
	// Lines 0, 4, 8 map to set 0 (4 sets). Two ways: inserting a third
	// evicts the least recently used.
	c.Insert(0, false)
	c.Insert(4, false)
	c.Lookup(0) // 0 becomes MRU; 4 is now LRU
	ev, _, did := c.Insert(8, false)
	if !did || ev != 4 {
		t.Fatalf("evicted %v (did=%v), want 4", ev, did)
	}
	if !c.Contains(0) || !c.Contains(8) || c.Contains(4) {
		t.Fatal("wrong lines resident after eviction")
	}
}

func TestInsertExistingRefreshesLRU(t *testing.T) {
	c := tiny()
	c.Insert(0, false)
	c.Insert(4, false)
	c.Insert(0, false) // refresh, no eviction
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	ev, _, did := c.Insert(8, false)
	if !did || ev != 4 {
		t.Fatalf("evicted %v, want 4 (0 was refreshed)", ev)
	}
}

func TestDirtyBit(t *testing.T) {
	c := tiny()
	c.Insert(1, false)
	if c.IsDirty(1) {
		t.Fatal("clean line reported dirty")
	}
	if !c.MarkDirty(1) {
		t.Fatal("MarkDirty missed resident line")
	}
	if !c.IsDirty(1) {
		t.Fatal("dirty bit lost")
	}
	// Re-inserting clean must not clear dirty.
	c.Insert(1, false)
	if !c.IsDirty(1) {
		t.Fatal("dirty bit cleared by clean re-insert")
	}
	wasDirty, removed := c.Remove(1)
	if !removed || !wasDirty {
		t.Fatalf("Remove = (%v,%v), want dirty removal", wasDirty, removed)
	}
}

func TestMarkDirtyMissing(t *testing.T) {
	c := tiny()
	if c.MarkDirty(7) {
		t.Fatal("MarkDirty on absent line returned true")
	}
}

func TestRemove(t *testing.T) {
	c := tiny()
	c.Insert(3, false)
	if _, removed := c.Remove(3); !removed {
		t.Fatal("failed to remove resident line")
	}
	if _, removed := c.Remove(3); removed {
		t.Fatal("removed a line twice")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after removal", c.Len())
	}
}

func TestClear(t *testing.T) {
	c := tiny()
	for i := Line(0); i < 8; i++ {
		c.Insert(i, false)
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Clear", c.Len())
	}
	for i := Line(0); i < 8; i++ {
		if c.Contains(i) {
			t.Fatalf("line %d survived Clear", i)
		}
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	// Property: under arbitrary insert/lookup/remove traffic the cache
	// never exceeds capacity, and every set keeps its layout: occupied
	// ways contiguous at the MRU end, no line twice, and Len equal to
	// the occupied ways.
	f := func(ops []uint16) bool {
		c := tiny()
		for _, op := range ops {
			line := Line(op % 64)
			switch op % 3 {
			case 0:
				c.Insert(line, op%5 == 0)
			case 1:
				c.Lookup(line)
			case 2:
				c.Remove(line)
			}
			if c.Len() > c.CapacityLines() {
				return false
			}
		}
		return layoutOK(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLinesSortedAndComplete(t *testing.T) {
	c := tiny()
	ins := []Line{9, 2, 17, 32} // sets 1,2,1,0 — fits in 2 ways per set
	for _, l := range ins {
		c.Insert(l, false)
	}
	got := c.Lines()
	if len(got) != len(ins) {
		t.Fatalf("Lines returned %d entries, want %d", len(got), len(ins))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Lines not sorted: %v", got)
		}
	}
}

func TestSetMapping(t *testing.T) {
	// Lines that differ only above the set-index bits must collide.
	c := tiny() // 4 sets
	c.Insert(0, false)
	c.Insert(4, false)
	c.Insert(8, false) // evicts 0
	if c.Contains(0) {
		t.Fatal("set collision not modeled: line 0 should have been evicted")
	}
	// A line in a different set must not evict anything.
	c2 := tiny()
	c2.Insert(0, false)
	c2.Insert(1, false)
	c2.Insert(2, false)
	c2.Insert(3, false)
	if c2.Len() != 4 {
		t.Fatalf("distinct sets should all be resident, Len=%d", c2.Len())
	}
}

func TestLineOf(t *testing.T) {
	if LineOf(0, 64) != 0 || LineOf(63, 64) != 0 || LineOf(64, 64) != 1 {
		t.Fatal("LineOf boundary arithmetic wrong")
	}
	if LineOf(mem.Addr(1<<20), 64) != Line(1<<14) {
		t.Fatal("LineOf scaling wrong")
	}
}

func TestResidentBytesIn(t *testing.T) {
	c := New(topology.CacheGeom{Size: 4096, LineSize: 64, Assoc: 4})
	span := mem.Span{Base: 128, Size: 256} // lines 2..5
	for l := Line(2); l <= 3; l++ {
		c.Insert(l, false)
	}
	if got := c.ResidentBytesIn(span); got != 128 {
		t.Fatalf("ResidentBytesIn = %d, want 128", got)
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid geometry accepted")
		}
	}()
	New(topology.CacheGeom{Size: 100, LineSize: 64, Assoc: 2})
}

// layoutOK reports whether every set of c keeps its empty ways at the LRU
// end and holds no line twice, and whether Len counts the occupied ways.
func layoutOK(c *Cache) bool {
	occupied := 0
	for s := 0; s < len(c.ways); s += c.assoc {
		set := c.ways[s : s+c.assoc]
		seen := make(map[entry]bool)
		for i, e := range set {
			if e == 0 {
				if i > 0 && set[i-1] != 0 {
					return false // an empty way above an occupied one
				}
				continue
			}
			if seen[e&^entryDirty] {
				return false
			}
			seen[e&^entryDirty] = true
			occupied++
		}
	}
	return occupied == c.count
}
