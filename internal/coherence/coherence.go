// Package coherence implements the global cache-coherence directory of the
// simulated machine.
//
// Real AMD hardware of the paper's era located and invalidated lines with
// interconnect broadcasts; what matters to the scheduling experiments is
// not the protocol's message pattern but its *state*: which caches hold a
// copy of each line, and which (if any) holds it dirty. The directory
// tracks exactly that state, in a MESI-equivalent form:
//
//   - no holders                     → Invalid (line only in DRAM)
//   - one holder, not dirty          → Exclusive
//   - many holders, none dirty       → Shared
//   - one holder, dirty              → Modified
//
// Holders are "nodes": each core's private L1+L2 pair is one node, and each
// chip's shared L3 is another. The machine model keeps directory state in
// lockstep with cache contents; the invariant tests in internal/machine
// check that correspondence after every simulation.
//
// The directory sits on the simulator's access fast path — every miss
// probes it and every store acquires ownership through it — so its state
// is indexed directly by line number, through a page table. A page is one
// simulated 4 KB page (cache.PageLines lines); the first time any of its
// lines gains a holder, the page gets one allocation of its own: the
// page's holder sets stored back to back, then its owner fields packed
// four to a word. A lookup is two array reads with no probing, consecutive
// lines sit in consecutive words (the full-shard scans of the sharded
// workloads walk memory in order), and storage grows with the pages a run
// touches, not with the image. A page is never moved, grown or unmapped.
// The zero set and zero owner mean "untracked, no owner", so a line is
// tracked exactly while its set is non-empty and Reset is a clear that
// keeps every page mapped.
//
// # Sharer-set width
//
// A holder set is a fixed-width bitset of NumWords() 64-bit words: one word
// on machines with at most 64 nodes (every configuration up to the paper's
// AMD16 and the 64-core presets), five on the 256-core NUMA preset. One
// representation serves every width. AcquireExclusive is the single-word
// store fast path; callers on wide directories use AcquireExclusiveWords
// with caller-owned scratch so the store path stays allocation-free at 256
// cores.
//
// # Slots
//
// A caller making several directory steps on one line resolves the line's
// Slot once with SlotOf and passes it to the *At methods (HoldsAt,
// AddSharerAt, RemoveSharerAt, HolderWordsAt), the way the cache package's
// LookupAt takes a precomputed set Index. The machine's miss path does so
// for every line that misses the core's L2. A page is never moved, so a
// slot stays valid while other lines change and across Reset.
package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
)

// Node identifies a holder: cores are nodes [0, NumCores); chip L3s are
// nodes [NumCores, NumCores+Chips).
type Node int

// NoOwner marks a line with no dirty copy.
const NoOwner Node = -1

// MaxNodes is the widest machine the directory supports: an 8-word holder
// set covers the 256-core NUMA preset (256 cores + 32 chip L3s = 288
// nodes) with headroom. The bound is a sanity rail, not a design limit —
// the word array scales, but a machine this size should be a deliberate
// preset, not an accident.
const MaxNodes = 512

// pageLines is the page table's page size in lines.
const pageLines = cache.PageLines

// ownerWords is the number of words a page spends on its lines' owner
// fields, 16 bits each: owner+1 is at most MaxNodes, which fits.
const ownerWords = pageLines / 4

// Directory tracks holders of every cached line in the machine.
//
// Line l lives in page pg = page[l/pageLines] at index i = l%pageLines:
// its holder set is pg[i*nwords : (i+1)*nwords], and its dirty owner is a
// 16-bit field in the ownerWords words that end pg (see ownerOf).
type Directory struct {
	nodes  int
	nwords int // 64-bit words per holder set
	count  int // lines with a non-empty holder set

	page [][]uint64 // page → its holder sets and owners; nil means never mapped
}

// NewDirectory creates a directory for a machine with the given total
// number of nodes (cores + chips). At most MaxNodes nodes are supported;
// construction of anything wider fails loudly here rather than silently
// aliasing holder bits.
func NewDirectory(nodes int) *Directory {
	if nodes <= 0 || nodes > MaxNodes {
		panic(fmt.Sprintf("coherence: %d nodes outside supported range [1,%d]", nodes, MaxNodes))
	}
	return &Directory{nodes: nodes, nwords: (nodes + 63) / 64}
}

// Nodes returns the number of nodes the directory was built for.
func (d *Directory) Nodes() int { return d.nodes }

// NumWords returns the number of 64-bit words in one holder set. Callers
// size their scratch buffers for the *Words APIs with it.
func (d *Directory) NumWords() int { return d.nwords }

// TrackedLines returns how many lines currently have at least one holder.
func (d *Directory) TrackedLines() int { return d.count }

// Reset drops every holder and owner while keeping every page mapped, so a
// machine flushed between benchmark phases or reused across sweep repeats
// allocates nothing to track the same lines again.
func (d *Directory) Reset() {
	for _, pg := range d.page {
		clear(pg)
	}
	d.count = 0
}

func (d *Directory) checkNode(n Node) {
	if n < 0 || int(n) >= d.nodes {
		panic(fmt.Sprintf("coherence: node %d outside [0,%d)", n, d.nodes))
	}
}

// panicNarrowOnly reports misuse of a single-word API on a wide directory;
// out of line so the hot callers stay free of allocating panic arguments.
func panicNarrowOnly(op string) {
	panic("coherence: " + op + " is single-word; use the *Words API on a >64-node directory")
}

// lookup returns l's page and l's index in it. The page is nil when it
// has never been mapped (and so l has no holders).
//
//o2:hotpath
func (d *Directory) lookup(l cache.Line) ([]uint64, int) {
	p := uint64(l) / pageLines
	i := int(uint64(l) % pageLines)
	if p >= uint64(len(d.page)) {
		return nil, i
	}
	return d.page[p], i
}

// ensurePage returns l's page and index, mapping the page first if needed.
//
//o2:hotpath
func (d *Directory) ensurePage(l cache.Line) ([]uint64, int) {
	if pg, i := d.lookup(l); pg != nil {
		return pg, i
	}
	return d.mapPage(l)
}

// Slot is one line's resolved place in the directory: its page and its
// index there. The page layout stays private; a Slot is only read and
// written through the *At methods of the directory that resolved it.
type Slot struct {
	pg []uint64
	i  int
}

// SlotOf returns l's slot, mapping its page first if needed, so it is for
// callers about to record a holder of l anyway.
//
//o2:hotpath
func (d *Directory) SlotOf(l cache.Line) Slot {
	pg, i := d.ensurePage(l)
	return Slot{pg, i}
}

// mapPage gives l's page its zeroed allocation and returns it with l's
// index.
func (d *Directory) mapPage(l cache.Line) ([]uint64, int) {
	p := int(uint64(l) / pageLines)
	if p >= len(d.page) {
		d.page = extend(d.page, p+1)
	}
	pg := make([]uint64, pageLines*d.nwords+ownerWords)
	d.page[p] = pg
	return pg, int(uint64(l) % pageLines)
}

// extend returns s lengthened to n elements; the new ones are zero. A
// reallocation at least doubles the capacity: append grows large slices
// by ~1.25x, which allocates and copies a growing table about five times
// over on its way up, against twice with doubling.
func extend[T any](s []T, n int) []T {
	if n > cap(s) {
		t := make([]T, len(s), max(n, 2*cap(s)))
		copy(t, s)
		s = t
	}
	// Nothing is ever written past len, so the exposed tail is zero.
	return s[:n]
}

// set returns line i's holder words in page pg.
//
//o2:hotpath
func (d *Directory) set(pg []uint64, i int) []uint64 {
	return pg[i*d.nwords : (i+1)*d.nwords]
}

// ownerOf returns the dirty owner of line i in page pg, or NoOwner.
func ownerOf(pg []uint64, i int) Node {
	return Node(pg[len(pg)-ownerWords+i>>2]>>(uint(i&3)*16)&0xFFFF) - 1
}

// setOwnerOf records n (NoOwner clears it) as the dirty owner of line i in
// page pg.
func setOwnerOf(pg []uint64, i int, n Node) {
	w := &pg[len(pg)-ownerWords+i>>2]
	sh := uint(i&3) * 16
	*w = *w&^(0xFFFF<<sh) | uint64(n+1)<<sh
}

// empty reports whether a holder set has no bits.
func empty(set []uint64) bool {
	for _, w := range set {
		if w != 0 {
			return false
		}
	}
	return true
}

// wordBit splits a node into its set-word index and bit.
func wordBit(n Node) (w int, bit uint64) {
	return int(n) >> 6, 1 << (uint(n) & 63)
}

// addBit sets node n's bit in line i's holder set in page pg, counting the
// line as tracked if the set was empty.
func (d *Directory) addBit(pg []uint64, i int, n Node) {
	set := d.set(pg, i)
	if empty(set) {
		d.count++
	}
	w, bit := wordBit(n)
	set[w] |= bit
}

// AddSharer records that node now holds a clean copy of line.
func (d *Directory) AddSharer(l cache.Line, n Node) {
	d.AddSharerAt(d.SlotOf(l), n)
}

// AddSharerAt is AddSharer on a resolved slot.
//
//o2:hotpath
func (d *Directory) AddSharerAt(s Slot, n Node) {
	d.checkNode(n)
	d.addBit(s.pg, s.i, n)
}

// SetOwner records that node holds line dirty (Modified). Any previous
// owner mark is replaced; the node is also recorded as a holder.
func (d *Directory) SetOwner(l cache.Line, n Node) {
	d.checkNode(n)
	pg, i := d.ensurePage(l)
	d.addBit(pg, i, n)
	setOwnerOf(pg, i, n)
}

// RemoveSharer records that node no longer holds line (eviction or
// invalidation). When the last holder disappears the line is untracked —
// it lives only in DRAM.
func (d *Directory) RemoveSharer(l cache.Line, n Node) {
	d.checkNode(n)
	if pg, i := d.lookup(l); pg != nil {
		d.RemoveSharerAt(Slot{pg, i}, n)
	}
}

// RemoveSharerAt is RemoveSharer on a resolved slot.
//
//o2:hotpath
func (d *Directory) RemoveSharerAt(s Slot, n Node) {
	d.checkNode(n)
	set := d.set(s.pg, s.i)
	w, bit := wordBit(n)
	if set[w]&bit == 0 {
		return
	}
	set[w] &^= bit
	if ownerOf(s.pg, s.i) == n {
		setOwnerOf(s.pg, s.i, NoOwner)
	}
	if empty(set) {
		d.count--
	}
}

// MoveSharer transfers a holder bit from one node to another in one step
// (an L2 victim moving into the chip's L3). Dirty ownership moves with it.
// It reports whether to already held line before the move, so the caller
// knows whether to's cache already has it.
func (d *Directory) MoveSharer(l cache.Line, from, to Node) (had bool) {
	d.checkNode(from)
	d.checkNode(to)
	pg, i := d.lookup(l)
	if pg == nil {
		// Nothing to move; treat as a plain add so callers need not
		// special-case races between eviction paths.
		d.AddSharer(l, to)
		return false
	}
	set := d.set(pg, i)
	fw, fbit := wordBit(from)
	tw, tbit := wordBit(to)
	had = set[tw]&tbit != 0
	if set[fw]&fbit == 0 {
		d.addBit(pg, i, to)
		return had
	}
	set[fw] &^= fbit
	set[tw] |= tbit
	if ownerOf(pg, i) == from {
		setOwnerOf(pg, i, to)
	}
	return had
}

// Holders returns the nodes holding line, in ascending order. The result
// is freshly allocated; the hot paths read HolderWordsAt instead.
func (d *Directory) Holders(l cache.Line) []Node {
	n := d.SharerCount(l)
	if n == 0 {
		return nil
	}
	out := make([]Node, 0, n)
	for w, x := range d.set(d.lookup(l)) {
		out = appendWord(out, x, w*64)
	}
	return out
}

// appendWord appends the nodes of holder word m, whose first node is base.
func appendWord(dst []Node, m uint64, base int) []Node {
	for m != 0 {
		n := bits.TrailingZeros64(m)
		dst = append(dst, Node(base+n))
		m &^= 1 << uint(n)
	}
	return dst
}

// HolderWordsAt returns the slot's live holder set: NumWords words, node
// n at bit n%64 of word n/64. The words are the directory's own, read in
// place with no copy; the caller must not write them, and they change with
// the next update of the slot's line.
//
//o2:hotpath
func (d *Directory) HolderWordsAt(s Slot) []uint64 {
	return d.set(s.pg, s.i)
}

// HasHolders reports whether any node holds line.
//
//o2:hotpath
func (d *Directory) HasHolders(l cache.Line) bool {
	pg, i := d.lookup(l)
	return pg != nil && !empty(d.set(pg, i))
}

// Holds reports whether node holds line.
func (d *Directory) Holds(l cache.Line, n Node) bool {
	d.checkNode(n)
	pg, i := d.lookup(l)
	return pg != nil && d.HoldsAt(Slot{pg, i}, n)
}

// HoldsAt is Holds on a resolved slot.
//
//o2:hotpath
func (d *Directory) HoldsAt(s Slot, n Node) bool {
	d.checkNode(n)
	w, bit := wordBit(n)
	return d.set(s.pg, s.i)[w]&bit != 0
}

// Owner returns the node holding line dirty, or NoOwner.
func (d *Directory) Owner(l cache.Line) Node {
	pg, i := d.lookup(l)
	if pg == nil {
		return NoOwner
	}
	return ownerOf(pg, i)
}

// AcquireExclusive makes keep the sole holder and dirty owner of line in a
// single lookup — InvalidateExcept followed by SetOwner, fused for the
// store path — and returns the bitmask of nodes that lost their copies.
// It allocates nothing. Narrow directories only; the wide store path is
// AcquireExclusiveWords.
//
//o2:hotpath
func (d *Directory) AcquireExclusive(l cache.Line, keep Node) (invalidated uint64) {
	if d.nwords != 1 {
		panicNarrowOnly("AcquireExclusive")
	}
	d.checkNode(keep)
	pg, i := d.ensurePage(l)
	h := &pg[i]
	if *h == 0 {
		d.count++
	}
	bit := uint64(1) << uint(keep)
	invalidated = *h &^ bit
	*h = bit
	setOwnerOf(pg, i, keep)
	return invalidated
}

// AcquireExclusiveWords is AcquireExclusive at any width: it makes keep
// the sole holder and dirty owner of line, writes the invalidated holder
// words into inv (which must have at least NumWords elements, fully
// overwritten), and reports whether any node was invalidated. inv is
// caller-owned scratch; the call allocates nothing.
//
//o2:hotpath
func (d *Directory) AcquireExclusiveWords(l cache.Line, keep Node, inv []uint64) bool {
	d.checkNode(keep)
	pg, i := d.ensurePage(l)
	set := d.set(pg, i)
	inv = inv[:len(set)]
	kw, kbit := wordBit(keep)
	copy(inv, set)
	if empty(set) {
		d.count++
	}
	clear(set)
	set[kw] = kbit
	inv[kw] &^= kbit
	setOwnerOf(pg, i, keep)
	return !empty(inv)
}

// InvalidateExcept removes every holder of line other than keep and returns
// the nodes that were invalidated, in ascending order. It implements the
// write path: a store must make the writer the sole holder.
func (d *Directory) InvalidateExcept(l cache.Line, keep Node) []Node {
	d.checkNode(keep)
	pg, i := d.lookup(l)
	if pg == nil {
		return nil
	}
	set := d.set(pg, i)
	kw, kbit := wordBit(keep)
	kept := set[kw] & kbit
	var out []Node
	for w, x := range set {
		if w == kw {
			x &^= kbit
		}
		out = appendWord(out, x, w*64)
		set[w] = 0
	}
	set[kw] = kept
	if ownerOf(pg, i) != keep {
		setOwnerOf(pg, i, NoOwner)
	}
	if kept == 0 && len(out) > 0 {
		d.count--
	}
	return out
}

// SharerCount returns the number of holders of line.
func (d *Directory) SharerCount(l cache.Line) int {
	pg, i := d.lookup(l)
	if pg == nil {
		return 0
	}
	n := 0
	for _, x := range d.set(pg, i) {
		n += bits.OnesCount64(x)
	}
	return n
}
