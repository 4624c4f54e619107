package cache

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/topology"
)

// fuzzGeoms are the geometries FuzzCache runs. The 2-way cache has 128
// sets, so its index hashes page bits and page colour decides which lines
// collide; the 16-, 32- and 3-way caches have so few sets that the line
// pool overfills every one. Associativity need not be a power of two.
var fuzzGeoms = [...]topology.CacheGeom{
	{Size: 128 * 2 * 64, LineSize: 64, Assoc: 2},
	{Size: 4 * 16 * 64, LineSize: 64, Assoc: 16},
	{Size: 2 * 32 * 64, LineSize: 64, Assoc: 32},
	{Size: 4 * 3 * 64, LineSize: 64, Assoc: 3},
}

// fuzzPages are the pages FuzzCache draws lines from: adjacent pages, a
// far one, and the last page a way can name.
var fuzzPages = [...]Line{0, 1, 2, 3, 5, 8, 1000, (MaxLines - 1) / PageLines}

// cacheOpBytes is the size of one encoded operation: opcode (low four
// bits) with the dirty flag in bit 4, page selector, offset in the page.
// FuzzCache reads at most cacheMaxOps operations of an input: every
// operation is checked against the whole reference, so a longer input
// only slows the fuzzer's minimization down.
const (
	cacheOpBytes = 3
	cacheMaxOps  = 512
)

// refWay is one line of the reference cache.
type refWay struct {
	line  Line
	dirty bool
}

// refCache is the naive model FuzzCache checks Cache against: one
// true-LRU list per set, least recently used first, each as long as its
// occupancy.
type refCache struct {
	sets  map[int][]refWay
	nsets int
	assoc int
}

func (r *refCache) find(l Line) (set []refWay, si, i int) {
	si = int(uint64(IndexOf(l)) & uint64(r.nsets-1))
	set = r.sets[si]
	for i, w := range set {
		if w.line == l {
			return set, si, i
		}
	}
	return set, si, -1
}

func (r *refCache) lookup(l Line) bool {
	set, si, i := r.find(l)
	if i < 0 {
		return false
	}
	w := set[i]
	r.sets[si] = append(slices.Delete(set, i, i+1), w)
	return true
}

func (r *refCache) insert(l Line, dirty bool) (evicted Line, evictedDirty, didEvict bool) {
	set, si, i := r.find(l)
	if i >= 0 {
		w := set[i]
		w.dirty = w.dirty || dirty
		r.sets[si] = append(slices.Delete(set, i, i+1), w)
		return 0, false, false
	}
	if len(set) == r.assoc {
		evicted, evictedDirty, didEvict = set[0].line, set[0].dirty, true
		set = slices.Delete(set, 0, 1)
	}
	r.sets[si] = append(set, refWay{l, dirty})
	return evicted, evictedDirty, didEvict
}

func (r *refCache) remove(l Line) (wasDirty, removed bool) {
	set, si, i := r.find(l)
	if i < 0 {
		return false, false
	}
	wasDirty = set[i].dirty
	r.sets[si] = slices.Delete(set, i, i+1)
	return wasDirty, true
}

func (r *refCache) lines() []Line {
	var out []Line
	for _, set := range r.sets {
		for _, w := range set {
			out = append(out, w.line)
		}
	}
	slices.Sort(out)
	return out
}

// FuzzCache decodes a byte stream into Cache operations on one of
// fuzzGeoms, applies each to the cache and to refCache, and after every
// operation compares the returned values (hit, evicted line, its dirty
// bit), Len and Lines. InsertNew is only issued after a failed Contains,
// as its contract requires. The seed corpus lives in
// testdata/fuzz/FuzzCache.
func FuzzCache(f *testing.F) {
	f.Add(uint8(0), []byte{4, 0, 0, 4, 1, 0, 4, 2, 0, 0, 0, 0, 4, 3, 0, 7, 1, 0})
	f.Add(uint8(3), []byte{0x14, 0, 0, 4, 0, 4, 4, 0, 8, 4, 0, 12, 3, 0, 0, 6, 0, 4, 15, 0, 0})
	f.Fuzz(func(t *testing.T, g uint8, ops []byte) {
		geom := fuzzGeoms[int(g)%len(fuzzGeoms)]
		c := New(geom)
		ref := &refCache{sets: make(map[int][]refWay), nsets: geom.Sets(), assoc: geom.Assoc}
		ops = ops[:min(len(ops), cacheMaxOps*cacheOpBytes)]
		for step := 0; len(ops) >= cacheOpBytes; ops, step = ops[cacheOpBytes:], step+1 {
			l := fuzzPages[int(ops[1])%len(fuzzPages)]*PageLines + Line(ops[2]%PageLines)
			l = min(l, MaxLines-1)
			dirty := ops[0]&0x10 != 0
			fail := func(op string, got, want any) {
				t.Fatalf("step %d %s(line %d, dirty %v): got %v, want %v", step, op, l, dirty, got, want)
			}
			switch op := ops[0] & 0x0F; op {
			case 15:
				c.Clear()
				clear(ref.sets)
			default:
				switch op % 8 {
				case 0:
					if got, want := c.Lookup(l), ref.lookup(l); got != want {
						fail("Lookup", got, want)
					}
				case 1:
					if got, want := c.LookupAt(l, IndexOf(l)), ref.lookup(l); got != want {
						fail("LookupAt", got, want)
					}
				case 2:
					_, _, i := ref.find(l)
					if got, want := c.Contains(l), i >= 0; got != want {
						fail("Contains", got, want)
					}
				case 3:
					set, _, i := ref.find(l)
					if got, want := c.IsDirty(l), i >= 0 && set[i].dirty; got != want {
						fail("IsDirty", got, want)
					}
				case 4:
					ev, evd, did := c.Insert(l, dirty)
					rev, revd, rdid := ref.insert(l, dirty)
					if ev != rev || evd != revd || did != rdid {
						fail("Insert", []any{ev, evd, did}, []any{rev, revd, rdid})
					}
				case 5:
					if c.Contains(l) {
						break
					}
					ev, evd, did := c.InsertNew(l, dirty)
					rev, revd, rdid := ref.insert(l, dirty)
					if ev != rev || evd != revd || did != rdid {
						fail("InsertNew", []any{ev, evd, did}, []any{rev, revd, rdid})
					}
				case 6:
					set, _, i := ref.find(l)
					if i >= 0 {
						set[i].dirty = true
					}
					if got, want := c.MarkDirty(l), i >= 0; got != want {
						fail("MarkDirty", got, want)
					}
				case 7:
					wd, rm := c.Remove(l)
					rwd, rrm := ref.remove(l)
					if wd != rwd || rm != rrm {
						fail("Remove", []any{wd, rm}, []any{rwd, rrm})
					}
				}
			}
			want := ref.lines()
			if c.Len() != len(want) {
				t.Fatalf("step %d: Len %d, reference holds %d lines", step, c.Len(), len(want))
			}
			if got := c.Lines(); !slices.Equal(got, want) {
				t.Fatalf("step %d: Lines %v, reference %v", step, got, want)
			}
		}
	})
}

// TestInsertBeyondMaxLinesPanics checks the range guard: a line a way
// cannot name must be refused with a panic that names it, not stored as
// a truncated alias of another line.
func TestInsertBeyondMaxLinesPanics(t *testing.T) {
	c := tiny()
	c.Insert(MaxLines-1, true)
	if !c.Contains(MaxLines-1) || !c.IsDirty(MaxLines-1) {
		t.Fatal("the last nameable line did not round-trip")
	}
	if c.Contains(MaxLines - 1 + 1<<31) {
		t.Fatal("a line beyond MaxLines aliases a resident one")
	}
	defer func() {
		msg, _ := recover().(string)
		if want := "line 2147483647 "; !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not name the line (%q)", msg, want)
		}
	}()
	c.Insert(MaxLines, false)
}
