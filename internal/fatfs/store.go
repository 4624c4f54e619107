package fatfs

import (
	"bytes"
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// maxPageBytes is the largest page a store takes: FAT16's largest
// cluster, 128 sectors.
const maxPageBytes = 64 << 10

// zeroPage backs every read of a page that was never written. Reads hand
// out capacity-clipped slices of it and nothing writes through them.
var zeroPage [maxPageBytes]byte

// store holds a volume's bytes in fixed pages of one cluster each. Pages
// are aligned to the data region, so every cluster is exactly one page;
// the metadata in front of it (boot sector, FAT, root directory) fills
// the pages below, the first of which may start before the volume. A page
// is materialized by its first write; until then it reads as zeros, so a
// fresh volume costs one slice header and one flag per page.
//
// Pages with identical bytes may share one buffer. intern points a page
// at an immutable image, looked up by its bytes in images, so a tree
// whose directories hold the same names holds each distinct directory
// cluster once. A shared page is copied before its first byte changes
// (write, writeAt, zero); zeroing a whole page drops it back to the zero
// page. The map's key is a second copy of each image, so interning pays
// only where images repeat, as they do in every generated tree.
//
// read and write return a slice into one page, so they must not span a
// page boundary. Every metadata access qualifies: the volume base and the
// data region are sector aligned, a page holds whole sectors, and
// sectors, dirents and FAT cells never straddle a sector. File data,
// which may, goes through readAt and writeAt.
type store struct {
	origin mem.Addr // start of page 0, at or below the volume
	lo, hi int      // the volume's bytes, as offsets from origin
	shift  uint     // log2 of the page size
	pages  [][]byte // nil until written
	shared []bool   // pages[p] is an interned image, never written in place
	images map[string][]byte
	// written counts the distinct buffers held: private pages plus
	// interned images.
	written int
}

// newStore returns a store for the size bytes at base whose pages hold
// pageBytes each, a power of two up to maxPageBytes, placed so that
// boundary (at or above base, a whole number of sectors past it) starts a
// page.
func newStore(base mem.Addr, size, pageBytes int, boundary mem.Addr) *store {
	gap := int(boundary - base)
	lo := (gap+pageBytes-1)/pageBytes*pageBytes - gap
	npages := (lo + size + pageBytes - 1) / pageBytes
	return &store{
		origin: base - mem.Addr(lo), lo: lo, hi: lo + size,
		shift:  uint(bits.TrailingZeros(uint(pageBytes))),
		pages:  make([][]byte, npages),
		shared: make([]bool, npages),
		images: make(map[string][]byte),
	}
}

// pageBytes returns the size of one page.
func (s *store) pageBytes() int { return 1 << s.shift }

// locate returns the page index and in-page offset of [a, a+n), which
// must lie inside the volume and inside one page. Touching any other bytes
// is a bug in the simulation, not a recoverable condition.
func (s *store) locate(a mem.Addr, n int) (int, int) {
	off := int(a - s.origin)
	o := off & (s.pageBytes() - 1)
	if off < s.lo || n < 0 || off+n > s.hi || o+n > s.pageBytes() {
		panic(fmt.Sprintf("fatfs: access [%#x,%#x) outside one page of the volume at %#x", a, int(a)+n, s.origin+mem.Addr(s.lo)))
	}
	return off >> s.shift, o
}

// read returns the n bytes at a for reading only. It never allocates.
func (s *store) read(a mem.Addr, n int) []byte {
	p, o := s.locate(a, n)
	if pg := s.pages[p]; pg != nil {
		return pg[o : o+n : o+n]
	}
	return zeroPage[o : o+n : o+n]
}

// write returns the n bytes at a for writing, materializing their page or
// copying it if it is shared.
func (s *store) write(a mem.Addr, n int) []byte {
	p, o := s.locate(a, n)
	pg := s.pages[p]
	switch {
	case pg == nil:
		pg = make([]byte, s.pageBytes())
	case s.shared[p]:
		pg = bytes.Clone(pg)
	default:
		return pg[o : o+n : o+n]
	}
	s.pages[p], s.shared[p] = pg, false
	s.written++
	return pg[o : o+n : o+n]
}

// intern makes the page that starts at a hold a copy of img, one page of
// bytes, sharing the buffer of an identical image this volume already
// holds. img stays the caller's: the store keeps only its own copy.
func (s *store) intern(a mem.Addr, img []byte) {
	p, o := s.locate(a, len(img))
	if o != 0 || len(img) != s.pageBytes() {
		panic(fmt.Sprintf("fatfs: interning %d bytes at %#x, not one page", len(img), a))
	}
	pg, ok := s.images[string(img)]
	if !ok {
		pg = bytes.Clone(img)
		s.images[string(pg)] = pg
		s.written++
	}
	s.drop(p)
	s.pages[p], s.shared[p] = pg, true
}

// drop returns page p to the zero page, releasing a private buffer.
func (s *store) drop(p int) {
	if s.pages[p] != nil && !s.shared[p] {
		s.written--
	}
	s.pages[p], s.shared[p] = nil, false
}

// chunk returns the length of the piece of [a, a+n) that starts at a and
// ends at or before the next page boundary.
func (s *store) chunk(a mem.Addr, n int) int {
	return min(n, s.pageBytes()-int(a-s.origin)&(s.pageBytes()-1))
}

// readAt copies len(b) bytes starting at a into b; the range may span
// pages.
func (s *store) readAt(b []byte, a mem.Addr) {
	for len(b) > 0 {
		k := s.chunk(a, len(b))
		copy(b, s.read(a, k))
		b, a = b[k:], a+mem.Addr(k)
	}
}

// writeAt copies b into the volume starting at a; the range may span
// pages.
func (s *store) writeAt(b []byte, a mem.Addr) {
	for len(b) > 0 {
		k := s.chunk(a, len(b))
		copy(s.write(a, k), b)
		b, a = b[k:], a+mem.Addr(k)
	}
}

// zero clears n bytes starting at a. Unwritten pages already read as
// zeros and are left alone; a page cleared whole is dropped.
func (s *store) zero(a mem.Addr, n int) {
	for n > 0 {
		k := s.chunk(a, n)
		switch p, _ := s.locate(a, k); {
		case s.pages[p] == nil:
		case k == s.pageBytes():
			s.drop(p)
		default:
			clear(s.write(a, k))
		}
		n, a = n-k, a+mem.Addr(k)
	}
}
