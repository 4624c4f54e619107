package fatfs

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
)

// testPage is the page size of the stores built directly by these tests.
const testPage = 4096

// TestStoreMatchesFlatReference drives random writeAt/readAt/zero calls
// that straddle page boundaries, and interns of whole pages drawn from a
// small pool of images, against a flat []byte holding the same volume.
// The pages start below the volume base, as a FAT volume's do. After
// every step each page must equal the reference, so a write or zero
// through one sharer of an image that leaks into another fails at once.
// Reads must materialize no page, interning a known image must add no
// buffer, and the shared zero page must still be all zeros at the end.
func TestStoreMatchesFlatReference(t *testing.T) {
	const base, size = mem.Addr(4096), 6*testPage + 777
	s := newStore(base, size, testPage, base+3*SectorSize)
	lead := s.lo // bytes of page 0 below the volume
	ref := make([]byte, size)
	rng := stats.NewRNG(42)
	randRange := func() (mem.Addr, int) {
		// Bias starts toward page boundaries so most ranges span one,
		// and a third of ranges are one or two whole pages.
		off := rng.Intn(size)
		switch rng.Intn(3) {
		case 0:
			off = max(0, (1+rng.Intn(size/testPage))*testPage-lead-1-rng.Intn(256))
		case 1:
			off = (1+rng.Intn(5))*testPage - lead
			return base + mem.Addr(off), min((1+rng.Intn(2))*testPage, size-off)
		}
		n := 1 + rng.Intn(min(3*testPage/2, size-off))
		return base + mem.Addr(off), n
	}
	pool := make([][]byte, 3)
	for i := range pool {
		pool[i] = make([]byte, testPage)
		for j := range pool[i] {
			pool[i][j] = byte(rng.Uint64())
		}
	}
	scratch := make([]byte, testPage)
	interned := 0
	for step := 0; step < 600; step++ {
		a, n := randRange()
		off := int(a - base)
		switch rng.Intn(4) {
		case 0:
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(rng.Uint64())
			}
			s.writeAt(b, a)
			copy(ref[off:], b)
		case 1:
			s.zero(a, n)
			clear(ref[off : off+n])
		case 2:
			written := s.written
			got := make([]byte, n)
			s.readAt(got, a)
			if !bytes.Equal(got, ref[off:off+n]) {
				t.Fatalf("step %d: readAt [%#x,+%d) differs from the reference", step, a, n)
			}
			if s.written != written {
				t.Fatalf("step %d: a read materialized %d pages", step, s.written-written)
			}
		case 3:
			// Pages 1 to 5 lie wholly inside the volume.
			p := 1 + rng.Intn(5)
			img := pool[rng.Intn(len(pool))]
			pa := s.origin + mem.Addr(p*testPage)
			_, known := s.images[string(img)]
			written := s.written
			if s.pages[p] != nil && !s.shared[p] {
				written--
			}
			copy(scratch, img)
			s.intern(pa, scratch)
			clear(scratch) // the store must have kept its own copy
			if !known {
				written++
			}
			if s.written != written {
				t.Fatalf("step %d: interning holds %d buffers, want %d", step, s.written, written)
			}
			copy(ref[int(pa-base):], img)
			interned++
		}
		for p := range s.pages {
			pg := s.pages[p]
			if pg == nil {
				pg = zeroPage[:testPage]
			}
			lo := p*testPage - lead
			hi := min(lo+testPage, size)
			if !bytes.Equal(pg[max(lo, 0)-lo:hi-lo], ref[max(lo, 0):hi]) {
				t.Fatalf("step %d: page %d differs from the reference", step, p)
			}
		}
	}
	if interned == 0 {
		t.Fatal("no page was interned")
	}
	if !bytes.Equal(zeroPage[:], make([]byte, len(zeroPage))) {
		t.Fatal("the shared zero page was written")
	}
}

// TestStoreSharesInternedPages checks that pages interned with the same
// image share one buffer until one of them is written, and that zeroing a
// shared page whole drops it without touching the others.
func TestStoreSharesInternedPages(t *testing.T) {
	s := newStore(0, 4*testPage, testPage, 0)
	img := bytes.Repeat([]byte{0xA5}, testPage)
	for p := range 3 {
		s.intern(mem.Addr(p*testPage), img)
	}
	if s.written != 1 {
		t.Fatalf("three sharers of one image hold %d buffers, want 1", s.written)
	}
	s.write(testPage+7, 1)[0] = 0
	if s.written != 2 || s.read(7, 1)[0] != 0xA5 || s.read(2*testPage+7, 1)[0] != 0xA5 {
		t.Fatalf("a write through one sharer: %d buffers, other sharers read %#x and %#x",
			s.written, s.read(7, 1)[0], s.read(2*testPage+7, 1)[0])
	}
	s.zero(0, testPage)
	if s.written != 2 || s.pages[0] != nil || s.read(2*testPage, 1)[0] != 0xA5 {
		t.Fatal("zeroing a shared page whole did not drop it alone")
	}
	s.zero(testPage, testPage)
	if s.written != 1 || s.pages[1] != nil {
		t.Fatalf("zeroing a private page whole left %d buffers", s.written)
	}
}

// TestStoreReadsDoNotMaterialize checks that read hands out the shared
// zero page, capacity-clipped so an append cannot write into it.
func TestStoreReadsDoNotMaterialize(t *testing.T) {
	s := newStore(0, 3*testPage, testPage, 0)
	b := s.read(testPage+10, 32)
	if s.written != 0 || s.pages[1] != nil {
		t.Fatal("read materialized a page")
	}
	if cap(b) != 32 {
		t.Fatalf("read returned capacity %d, want 32", cap(b))
	}
	_ = append(b, 1)
	if zeroPage[10+32] != 0 {
		t.Fatal("append through a read slice wrote the zero page")
	}
	s.zero(0, 3*testPage)
	if s.written != 0 {
		t.Fatal("zero materialized a page")
	}
}

// TestStoreReadWriteRoundTrip is the byte round trip that lived on the
// memory image before the volume took its bytes over.
func TestStoreReadWriteRoundTrip(t *testing.T) {
	s := newStore(64, 4096, testPage, 64)
	payload := []byte("the quick brown fox")
	s.writeAt(payload, 128)
	got := make([]byte, len(payload))
	s.readAt(got, 128)
	if !bytes.Equal(got, payload) {
		t.Errorf("round trip = %q, want %q", got, payload)
	}
}

// TestStoreScalarLittleEndian checks the volume's multi-byte fields are
// little-endian: a FAT cell through setFAT and readFAT, the boot sector's
// 32-bit total-sector count, and a 64-bit value written across the
// boundary between the first two data clusters' pages.
func TestStoreScalarLittleEndian(t *testing.T) {
	fs := newFS(t)
	fs.setFAT(null, 5, 0xBEEF)
	if got := fs.readFAT(null, 5); got != 0xBEEF {
		t.Errorf("readFAT = %#x", got)
	}
	if b := fs.vol.read(fs.fatAddr(5), 2); b[0] != 0xEF || b[1] != 0xBE {
		t.Errorf("FAT cell bytes % x are not little-endian", b)
	}
	sectors := uint32(DefaultConfig().TotalBytes / SectorSize)
	if got := binary.LittleEndian.Uint32(fs.vol.read(fs.base+32, 4)); got != sectors {
		t.Errorf("boot sector total sectors = %d, want %d", got, sectors)
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], 0x0123456789ABCDEF)
	a := fs.clusterAddr(minCluster+1) - 3
	fs.vol.writeAt(w[:], a)
	var r [8]byte
	fs.vol.readAt(r[:], a)
	if got := binary.LittleEndian.Uint64(r[:]); got != 0x0123456789ABCDEF {
		t.Errorf("64-bit value across a page boundary = %#x", got)
	}
}

// TestStoreOutOfRangePanics: touching bytes outside the volume, or one
// read spanning a page boundary, is a simulation bug and must panic.
func TestStoreOutOfRangePanics(t *testing.T) {
	s := newStore(64, 2*testPage, testPage, 64)
	for _, c := range []struct {
		name string
		a    mem.Addr
		n    int
	}{
		{"past the end", 64 + 2*testPage - 8, 16},
		{"below the base", 0, 8},
		{"across a page", 64 + testPage - 4, 8},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: access did not panic", c.name)
				}
			}()
			s.read(c.a, c.n)
		}()
	}
}
