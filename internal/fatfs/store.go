package fatfs

import (
	"fmt"

	"repro/internal/mem"
)

// pageBytes is the size of one page of a volume's byte store.
const pageBytes = 64 << 10

// zeroPage backs every read of a page that was never written. Reads hand
// out capacity-clipped slices of it and nothing writes through them.
var zeroPage [pageBytes]byte

// store holds a volume's bytes in fixed pages indexed by offset from the
// volume base. A page is materialized by its first write; until then it
// reads as zeros, so a fresh volume costs one slice header per page.
//
// read and write return a slice into one page, so they must not span a
// page boundary. Every metadata access qualifies: the volume base is
// sector aligned, a page holds whole sectors, and sectors, dirents and
// FAT cells never straddle a sector. File data, which may, goes through
// readAt and writeAt.
type store struct {
	base    mem.Addr
	size    int
	pages   [][]byte // nil until written
	written int      // pages materialized
}

func newStore(base mem.Addr, size int) *store {
	return &store{base: base, size: size, pages: make([][]byte, (size+pageBytes-1)/pageBytes)}
}

// locate returns the page index and in-page offset of [a, a+n), which
// must lie inside the volume and inside one page. Touching any other bytes
// is a bug in the simulation, not a recoverable condition.
func (s *store) locate(a mem.Addr, n int) (int, int) {
	off := int(a - s.base)
	if a < s.base || n < 0 || off+n > s.size || off%pageBytes+n > pageBytes {
		panic(fmt.Sprintf("fatfs: access [%#x,%#x) outside one page of the volume at %#x", a, int(a)+n, s.base))
	}
	return off / pageBytes, off % pageBytes
}

// read returns the n bytes at a for reading only. It never allocates.
func (s *store) read(a mem.Addr, n int) []byte {
	p, o := s.locate(a, n)
	if pg := s.pages[p]; pg != nil {
		return pg[o : o+n : o+n]
	}
	return zeroPage[o : o+n : o+n]
}

// write returns the n bytes at a for writing, materializing their page.
func (s *store) write(a mem.Addr, n int) []byte {
	p, o := s.locate(a, n)
	if s.pages[p] == nil {
		s.pages[p] = make([]byte, pageBytes)
		s.written++
	}
	return s.pages[p][o : o+n : o+n]
}

// chunk returns the length of the piece of [a, a+n) that starts at a and
// ends at or before the next page boundary.
func (s *store) chunk(a mem.Addr, n int) int {
	return min(n, pageBytes-int(a-s.base)%pageBytes)
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
// zeros, so only materialized pages are touched.
func (s *store) zero(a mem.Addr, n int) {
	for n > 0 {
		k := s.chunk(a, n)
		if p, o := s.locate(a, k); s.pages[p] != nil {
			clear(s.pages[p][o : o+k])
		}
		n, a = n-k, a+mem.Addr(k)
	}
}
