// Package cache implements the set-associative cache model used for every
// level of the simulated hierarchy (per-core L1 and L2, per-chip L3).
//
// A Cache is a pure container of line tags with LRU replacement: it knows
// nothing about latencies, coherence, or other caches. The machine model
// (internal/machine) composes caches into a hierarchy and keeps the global
// coherence directory (internal/coherence) consistent with their contents.
package cache

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/topology"
)

// Line identifies a cache line: a line-size-aligned address divided by the
// line size. Using line numbers rather than byte addresses keeps maps small
// and makes aliasing bugs (two addresses in one line) impossible.
type Line uint64

// LineOf converts a byte address to its line number for the given line size.
func LineOf(a mem.Addr, lineSize int) Line {
	return Line(uint64(a) / uint64(lineSize))
}

// entry is one resident line, packed as line<<1 | dirty so an
// associativity-wide set scan — the simulator's innermost loop — touches
// one machine word per way and compares without unpacking. Dirty marks
// lines that must conceptually be written back on eviction (the model
// charges no writeback latency, but the flag is maintained so the
// coherence layer can distinguish owners).
type entry uint64

const entryDirty entry = 1

func packEntry(l Line, dirty bool) entry {
	e := entry(l) << 1
	if dirty {
		e |= entryDirty
	}
	return e
}

func (e entry) line() Line  { return Line(e >> 1) }
func (e entry) dirty() bool { return e&entryDirty != 0 }

// key returns the comparison form of a line: an entry matches l iff
// e&^entryDirty == key(l).
func key(l Line) entry { return entry(l) << 1 }

// Cache is a set-associative cache with true-LRU replacement within each
// set. Within a set, entries are kept in recency order: index 0 is the
// least recently used.
//
// Set indexing models a physically-indexed cache under an operating
// system that places pages arbitrarily: within a 4 KB page, consecutive
// lines map to consecutive sets (preserving spatial locality), but the
// page-number bits are hashed. Without this, the simulator's flat address
// space would give identically-sized, identically-aligned objects (the
// benchmark's 32 KB directories) perfectly correlated set pressure — a
// pathology real virtual memory destroys. Caches small enough that the
// whole index comes from the page offset use plain modular indexing, as
// the hardware would.
type Cache struct {
	geom   topology.CacheGeom
	sets   [][]entry
	mask   uint64 // set index mask
	hashed bool   // set index includes hashed page-number bits
	count  int
}

// PageLines is the number of cache lines per 4 KB page at 64-byte lines:
// the unit of the set index's page hash here and of the coherence
// directory's page table.
const PageLines = 64

// New builds an empty cache with the given geometry. It panics on invalid
// geometry; callers validate configs at startup via topology.Config.Validate.
// All sets share one backing slab sized to the full capacity, so inserts
// never allocate and a whole set scan stays within one contiguous region.
func New(geom topology.CacheGeom) *Cache {
	if err := geom.Validate("cache"); err != nil {
		panic(err)
	}
	nsets := geom.Sets()
	c := &Cache{
		geom:   geom,
		sets:   make([][]entry, nsets),
		mask:   uint64(nsets - 1),
		hashed: nsets > PageLines,
	}
	slab := make([]entry, nsets*geom.Assoc)
	for i := range c.sets {
		c.sets[i] = slab[i*geom.Assoc : i*geom.Assoc : (i+1)*geom.Assoc]
	}
	return c
}

// Geom returns the cache geometry.
func (c *Cache) Geom() topology.CacheGeom { return c.geom }

// Len returns the number of resident lines.
func (c *Cache) Len() int { return c.count }

// CapacityLines returns the maximum number of resident lines.
func (c *Cache) CapacityLines() int { return c.geom.Size / c.geom.LineSize }

func (c *Cache) setOf(l Line) int {
	if !c.hashed {
		return int(uint64(l) & c.mask)
	}
	// Keep the within-page offset bits, substitute hashed page-number
	// bits for the rest of the index (fmix-style avalanche).
	page := uint64(l) / PageLines
	page ^= page >> 33
	page *= 0xFF51AFD7ED558CCD
	page ^= page >> 33
	return int(((uint64(l) % PageLines) | (page * PageLines)) & c.mask)
}

// Lookup reports whether line is resident and, if so, marks it most
// recently used. The scan runs MRU-first (from the back of the recency
// order): on the simulator's hot path the looked-up line is almost always
// the most recently used one, which makes the common hit a single compare
// and no reordering.
//
//o2:hotpath
func (c *Cache) Lookup(l Line) bool {
	set := c.sets[c.setOf(l)]
	k := key(l)
	for i := len(set) - 1; i >= 0; i-- {
		if set[i]&^entryDirty == k {
			if i < len(set)-1 {
				// Shift by hand: the run is at most assoc-1 words, below
				// the length where memmove's call overhead pays off.
				e := set[i]
				for ; i < len(set)-1; i++ {
					set[i] = set[i+1]
				}
				set[i] = e
			}
			return true
		}
	}
	return false
}

// Contains reports residency without disturbing LRU order.
func (c *Cache) Contains(l Line) bool {
	set := c.sets[c.setOf(l)]
	k := key(l)
	for i := len(set) - 1; i >= 0; i-- {
		if set[i]&^entryDirty == k {
			return true
		}
	}
	return false
}

// IsDirty reports whether line is resident and dirty.
func (c *Cache) IsDirty(l Line) bool {
	set := c.sets[c.setOf(l)]
	k := key(l)
	for i := len(set) - 1; i >= 0; i-- {
		if set[i]&^entryDirty == k {
			return set[i].dirty()
		}
	}
	return false
}

// Insert makes line resident (most recently used), evicting the LRU entry
// of its set if the set is full. It returns the evicted line and whether an
// eviction happened. Inserting an already-resident line refreshes its LRU
// position and dirty bit without eviction.
func (c *Cache) Insert(l Line, dirty bool) (evicted Line, evictedDirty, didEvict bool) {
	si := c.setOf(l)
	set := c.sets[si]
	k := key(l)
	for i := len(set) - 1; i >= 0; i-- {
		if set[i]&^entryDirty == k {
			e := set[i]
			if dirty {
				e |= entryDirty
			}
			for ; i < len(set)-1; i++ {
				set[i] = set[i+1]
			}
			set[i] = e
			return 0, false, false
		}
	}
	return c.insertAbsent(si, set, l, dirty)
}

// InsertNew is Insert for a line the caller has just proven absent (its
// Lookup or Contains on this cache returned false, with no intervening
// mutation). It skips the residency re-scan; the insertion and eviction
// behavior is identical to Insert's absent case. The machine model's miss
// path uses it: every install there follows a failed lookup on the same
// cache.
//
//o2:hotpath
func (c *Cache) InsertNew(l Line, dirty bool) (evicted Line, evictedDirty, didEvict bool) {
	si := c.setOf(l)
	return c.insertAbsent(si, c.sets[si], l, dirty)
}

// insertAbsent places a non-resident line at MRU, evicting LRU on a full
// set.
//
//o2:hotpath
func (c *Cache) insertAbsent(si int, set []entry, l Line, dirty bool) (evicted Line, evictedDirty, didEvict bool) {
	if len(set) >= c.geom.Assoc {
		victim := set[0]
		for i := 0; i < len(set)-1; i++ {
			set[i] = set[i+1]
		}
		set[len(set)-1] = packEntry(l, dirty)
		c.sets[si] = set
		return victim.line(), victim.dirty(), true
	}
	//o2:allowalloc "append within the set's pre-sliced slab capacity: New caps each set at assoc, so this never grows"
	c.sets[si] = append(set, packEntry(l, dirty))
	c.count++
	return 0, false, false
}

// MarkDirty sets the dirty bit on a resident line and reports whether the
// line was present.
func (c *Cache) MarkDirty(l Line) bool {
	set := c.sets[c.setOf(l)]
	k := key(l)
	for i := len(set) - 1; i >= 0; i-- {
		if set[i]&^entryDirty == k {
			set[i] |= entryDirty
			return true
		}
	}
	return false
}

// Remove invalidates line, reporting whether it was resident and dirty.
func (c *Cache) Remove(l Line) (wasDirty, removed bool) {
	si := c.setOf(l)
	set := c.sets[si]
	k := key(l)
	for i := range set {
		if set[i]&^entryDirty == k {
			dirty := set[i].dirty()
			for ; i < len(set)-1; i++ {
				set[i] = set[i+1]
			}
			c.sets[si] = set[:len(set)-1]
			c.count--
			return dirty, true
		}
	}
	return false, false
}

// Clear invalidates every line.
func (c *Cache) Clear() {
	for i := range c.sets {
		c.sets[i] = c.sets[i][:0]
	}
	c.count = 0
}

// Lines returns all resident lines in ascending order (for inspection and
// the Fig. 2 cache-contents tool).
func (c *Cache) Lines() []Line {
	return c.AppendLines(make([]Line, 0, c.count))
}

// AppendLines appends every resident line to dst in ascending order and
// returns the extended slice — the allocation-free sibling of Lines for
// callers with a reusable scratch buffer (the machine's residency and
// invariant scans).
func (c *Cache) AppendLines(dst []Line) []Line {
	start := len(dst)
	for _, set := range c.sets {
		for _, e := range set {
			dst = append(dst, e.line())
		}
	}
	added := dst[start:]
	sort.Slice(added, func(i, j int) bool { return added[i] < added[j] })
	return dst
}

// ResidentBytesIn counts how many bytes of span are resident, for occupancy
// reports.
func (c *Cache) ResidentBytesIn(span mem.Span) int {
	ls := c.geom.LineSize
	first := LineOf(span.Base, ls)
	last := LineOf(span.End()-1, ls)
	n := 0
	for l := first; l <= last; l++ {
		if c.Contains(l) {
			n++
		}
	}
	return n * ls
}

// String summarises occupancy for debugging.
func (c *Cache) String() string {
	return fmt.Sprintf("cache{%d/%d lines, %d sets × %d ways}",
		c.count, c.CapacityLines(), len(c.sets), c.geom.Assoc)
}
