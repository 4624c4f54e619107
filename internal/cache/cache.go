// Package cache implements the set-associative cache model used for every
// level of the simulated hierarchy (per-core L1 and L2, per-chip L3).
//
// A Cache is a pure container of line tags with LRU replacement: it knows
// nothing about latencies, coherence, or other caches. The machine model
// (internal/machine) composes caches into a hierarchy and keeps the global
// coherence directory (internal/coherence) consistent with their contents.
//
// Layout. Every way is one 32-bit entry, and all of a cache's sets live
// back to back in one slab at a fixed stride of assoc ways, so a 16-way
// set is one 64-byte host line and a 32-way set two. Within a set, ways
// are in recency order, index 0 least recently used; empty ways (entry 0)
// sit at the LRU end. An insert shifts the set down one way and writes
// the new line at the MRU end, evicting whatever was in way 0. There are
// no per-set lengths or slice headers to load before the tag compare.
//
// Indexing. Every level selects its set from one Index per line
// (IndexOf): the line's offset within its 4 KB page in the low bits,
// hashed page-number bits above. A cache takes Index & (sets-1), so a
// walk over consecutive lines hashes each page once (PageIndex) for the
// whole hierarchy and passes the Index down (LookupAt, InsertNewAt).
//
// Depth. A way's depth is its place in its set's recency order, 0 for
// the most recently used. LookupDepthAt, DepthAt and RemoveAt report it
// and LineAt reads a set by it. The machine model keeps an L1 with as
// many sets as its L2 as a count of each L2 set's most recent ways, with
// no tags of its own, and these are the calls that count needs.
//
// Skipped scans. A full-set scan is the expensive case: a miss reads
// every way. The machine model therefore scans a chip's 32-way victim L3
// only when the coherence directory says that L3 holds the line, and
// spills an L2 victim with InsertNewAt unless the directory says the L3
// already has it. It does not gate the L2 lookup: most L1 misses hit L2,
// which never touched the directory before, and the extra directory read
// measured slower than the scan it saved.
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

// MaxLines is the number of distinct lines a way can name: a cache holds
// lines 0 through MaxLines-1, which at 64-byte lines is 128 GB of
// simulated memory. The machine model rejects memory limits beyond it.
const MaxLines = 1<<31 - 1

// entry is one way, packed as (line+1)<<1 | dirty, with 0 an empty way.
// An associativity-wide set scan — the simulator's innermost loop —
// compares one 32-bit word per way without unpacking. Dirty marks lines
// that must conceptually be written back on eviction (the model charges
// no writeback latency, but the flag is maintained so the coherence
// layer can distinguish owners).
type entry uint32

const entryDirty entry = 1

func packEntry(l Line, dirty bool) entry {
	e := entry(l+1) << 1
	if dirty {
		e |= entryDirty
	}
	return e
}

func (e entry) line() Line  { return Line(e>>1) - 1 }
func (e entry) dirty() bool { return e&entryDirty != 0 }

// key returns the comparison form of a line: a way holds l iff
// uint64(e&^entryDirty) == key(l). It is 64 bits wide so a line beyond
// MaxLines matches no way rather than a truncated alias.
func key(l Line) uint64 { return (uint64(l) + 1) << 1 }

// find returns the way of set holding l, or -1. The scan runs MRU-first:
// on the simulator's hot path the looked-up line is almost always the
// most recently used one, which makes the common hit a single compare.
func find(set []entry, l Line) int {
	k := key(l)
	for i := len(set) - 1; i >= 0; i-- {
		if uint64(set[i]&^entryDirty) == k {
			return i
		}
	}
	return -1
}

// toMRU moves way i to the MRU end, shifting the more recent ways down.
// The shift is by hand: a hit is usually within a few ways of MRU, a run
// too short for memmove's call overhead to pay off.
func toMRU(set []entry, i int) {
	e := set[i]
	for ; i < len(set)-1; i++ {
		set[i] = set[i+1]
	}
	set[i] = e
}

// Index is a line's set index before masking: the line's offset within
// its page in the low log2(PageLines) bits, hashed page-number bits above.
// A cache with S sets uses set Index & (S-1).
//
// This models a physically-indexed cache under an operating system that
// places pages arbitrarily: within a 4 KB page, consecutive lines map to
// consecutive sets (preserving spatial locality), but the page-number
// bits are hashed. Without this, the simulator's flat address space would
// give identically-sized, identically-aligned objects (the benchmark's 32
// KB directories) perfectly correlated set pressure — a pathology real
// virtual memory destroys. A cache of at most PageLines sets takes its
// whole index from the page offset, which is plain modular indexing, as
// the hardware would.
type Index uint64

// PageIndex returns the Index of the first line of l's page: the page
// number through an fmix-style avalanche, shifted above the offset bits.
// Every line of the page has Index PageIndex(l) | l%PageLines.
func PageIndex(l Line) Index {
	page := uint64(l) / PageLines
	page ^= page >> 33
	page *= 0xFF51AFD7ED558CCD
	page ^= page >> 33
	return Index(page * PageLines)
}

// IndexOf returns l's Index.
func IndexOf(l Line) Index { return PageIndex(l) | Index(l%PageLines) }

// Cache is a set-associative cache with true-LRU replacement within each
// set.
type Cache struct {
	geom  topology.CacheGeom
	ways  []entry // set s is ways[s*assoc : (s+1)*assoc]
	assoc int
	mask  uint64 // set index mask
	count int
}

// PageLines is the number of cache lines per 4 KB page at 64-byte lines:
// the unit of the set index's page hash here and of the coherence
// directory's page table.
const PageLines = 64

// New builds an empty cache with the given geometry. It panics on invalid
// geometry; callers validate configs at startup via topology.Config.Validate.
// The slab is sized to the full capacity, so inserts never allocate.
func New(geom topology.CacheGeom) *Cache {
	if err := geom.Validate("cache"); err != nil {
		panic(err)
	}
	nsets := geom.Sets()
	return &Cache{
		geom:  geom,
		ways:  make([]entry, nsets*geom.Assoc),
		assoc: geom.Assoc,
		mask:  uint64(nsets - 1),
	}
}

// Geom returns the cache geometry.
func (c *Cache) Geom() topology.CacheGeom { return c.geom }

// Len returns the number of resident lines.
func (c *Cache) Len() int { return c.count }

// CapacityLines returns the maximum number of resident lines.
func (c *Cache) CapacityLines() int { return c.geom.Size / c.geom.LineSize }

// set returns the ways of the set idx selects.
func (c *Cache) set(idx Index) []entry {
	s := int(uint64(idx)&c.mask) * c.assoc
	return c.ways[s : s+c.assoc]
}

// Lookup reports whether line is resident and, if so, marks it most
// recently used.
func (c *Cache) Lookup(l Line) bool { return c.LookupAt(l, IndexOf(l)) }

// LookupAt is Lookup with l's Index supplied by the caller, which must
// pass IndexOf(l).
//
//o2:hotpath
func (c *Cache) LookupAt(l Line, idx Index) bool { return c.LookupDepthAt(l, idx) >= 0 }

// LookupDepthAt is LookupAt reporting where the line was: its depth in
// the set's recency order before the lookup (0 for the most recently
// used way), or -1 if it is not resident. idx must be IndexOf(l).
//
//o2:hotpath
func (c *Cache) LookupDepthAt(l Line, idx Index) int {
	set := c.set(idx)
	i := find(set, l)
	if i < 0 {
		return -1
	}
	if i < len(set)-1 {
		toMRU(set, i)
	}
	return len(set) - 1 - i
}

// DepthAt returns l's depth in its set's recency order (0 for the most
// recently used way), or -1 if it is not resident, changing nothing.
// idx must be IndexOf(l).
func (c *Cache) DepthAt(l Line, idx Index) int {
	set := c.set(idx)
	if i := find(set, l); i >= 0 {
		return len(set) - 1 - i
	}
	return -1
}

// LineAt returns the line at the given depth of set s (0 for the most
// recently used way), and false if that way is empty. Empty ways sit at
// the LRU end, so a set holds at least d+1 lines iff depth d is occupied.
func (c *Cache) LineAt(s, depth int) (Line, bool) {
	e := c.ways[s*c.assoc+c.assoc-1-depth]
	return e.line(), e != 0
}

// HoldsMRU reports whether l is the most recently used line of the set
// idx selects, which must be IndexOf(l): the one-compare probe that lets
// the machine model finish an L1 hit on the MRU way without refreshing
// anything. It changes no state and is small enough to inline.
func (c *Cache) HoldsMRU(l Line, idx Index) bool {
	return uint64(c.ways[int(uint64(idx)&c.mask)*c.assoc+c.assoc-1]&^entryDirty) == key(l)
}

// AppendMRU appends the most recently used line of every non-empty set to
// dst, in set order, and returns the extended slice (for the machine's
// invariant checks).
func (c *Cache) AppendMRU(dst []Line) []Line {
	for s := c.assoc - 1; s < len(c.ways); s += c.assoc {
		if e := c.ways[s]; e != 0 {
			dst = append(dst, e.line())
		}
	}
	return dst
}

// Contains reports residency without disturbing LRU order.
func (c *Cache) Contains(l Line) bool { return find(c.set(IndexOf(l)), l) >= 0 }

// IsDirty reports whether line is resident and dirty.
func (c *Cache) IsDirty(l Line) bool {
	set := c.set(IndexOf(l))
	i := find(set, l)
	return i >= 0 && set[i].dirty()
}

// Insert makes line resident (most recently used), evicting the LRU entry
// of its set if the set is full. It returns the evicted line and whether an
// eviction happened. Inserting an already-resident line refreshes its LRU
// position and dirty bit without eviction.
func (c *Cache) Insert(l Line, dirty bool) (evicted Line, evictedDirty, didEvict bool) {
	return c.InsertAt(l, IndexOf(l), dirty)
}

// InsertAt is Insert with l's Index supplied by the caller, which must
// pass IndexOf(l).
func (c *Cache) InsertAt(l Line, idx Index, dirty bool) (evicted Line, evictedDirty, didEvict bool) {
	set := c.set(idx)
	i := find(set, l)
	if i < 0 {
		return c.insertAbsent(set, l, dirty)
	}
	if dirty {
		set[i] |= entryDirty
	}
	toMRU(set, i)
	return 0, false, false
}

// InsertNewAt is InsertAt for a line the caller has just proven absent
// (its lookup on this cache failed, with no intervening mutation). It
// skips the residency re-scan; the insertion and eviction behavior is
// identical to Insert's absent case. The machine model's miss path uses
// it: every install there follows a failed lookup on the same cache.
// idx must be IndexOf(l).
//
//o2:hotpath
func (c *Cache) InsertNewAt(l Line, idx Index, dirty bool) (evicted Line, evictedDirty, didEvict bool) {
	return c.insertAbsent(c.set(idx), l, dirty)
}

// insertAbsent places a non-resident line at MRU, shifting the set down
// one way; the line that falls off the LRU end, if any, is evicted. The
// shift always moves assoc-1 ways, where copy's memmove beats a loop on
// the 16- and 32-way sets.
//
//o2:hotpath
func (c *Cache) insertAbsent(set []entry, l Line, dirty bool) (evicted Line, evictedDirty, didEvict bool) {
	if l >= MaxLines {
		panicLineRange(l)
	}
	victim := set[0]
	copy(set, set[1:])
	set[len(set)-1] = packEntry(l, dirty)
	if victim == 0 {
		c.count++
		return 0, false, false
	}
	return victim.line(), victim.dirty(), true
}

// panicLineRange is kept out of line so the hot insert path stays free of
// allocating panic arguments.
func panicLineRange(l Line) {
	panic(fmt.Sprintf("cache: line %d is beyond the %d lines a way can hold", l, MaxLines))
}

// MarkDirty sets the dirty bit on a resident line and reports whether the
// line was present.
func (c *Cache) MarkDirty(l Line) bool { return c.MarkDirtyAt(l, IndexOf(l)) }

// MarkDirtyAt is MarkDirty with l's Index supplied by the caller, which
// must pass IndexOf(l).
//
//o2:hotpath
func (c *Cache) MarkDirtyAt(l Line, idx Index) bool {
	set := c.set(idx)
	i := find(set, l)
	if i < 0 {
		return false
	}
	set[i] |= entryDirty
	return true
}

// RemoveAt invalidates line l, whose Index idx must be IndexOf(l). It
// returns the depth the line had in its set's recency order (0 for the
// most recently used way), or -1 if it was not resident, and whether it
// was dirty. The less recent ways shift up one, keeping the empty ways at
// the LRU end.
//
//o2:hotpath
func (c *Cache) RemoveAt(l Line, idx Index) (depth int, wasDirty bool) {
	set := c.set(idx)
	i := find(set, l)
	if i < 0 {
		return -1, false
	}
	dirty := set[i].dirty()
	copy(set[1:i+1], set[:i])
	set[0] = 0
	c.count--
	return len(set) - 1 - i, dirty
}

// Clear invalidates every line.
func (c *Cache) Clear() {
	clear(c.ways)
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
	for _, e := range c.ways {
		if e != 0 {
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
		c.count, c.CapacityLines(), len(c.ways)/c.assoc, c.assoc)
}
