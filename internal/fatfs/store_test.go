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

// TestStoreMatchesFlatReference drives random in-page write and read
// calls, and interns of whole pages drawn from a small pool of images,
// against a flat []byte holding the same volume. The pages start below
// the volume base, as a FAT volume's do. A write into an interned page
// and an intern over a page already set must panic and change nothing.
// After every step each page must equal the reference, so a write that
// leaks into a sharer of an image fails at once. Reads must materialize
// no page, a first write must add one buffer, interning a known image
// must add none, and the shared zero page must still be all zeros at the
// end.
func TestStoreMatchesFlatReference(t *testing.T) {
	const base, size = mem.Addr(4096), 30*testPage + 777
	s := newStore(base, size, testPage, base+3*SectorSize)
	lead := s.lo // bytes of page 0 below the volume
	ref := make([]byte, size)
	rng := stats.NewRNG(42)
	pool := make([][]byte, 3)
	for i := range pool {
		pool[i] = make([]byte, testPage)
		for j := range pool[i] {
			pool[i][j] = byte(rng.Uint64())
		}
	}
	scratch := make([]byte, testPage)
	var interned, refused int
	panics := func(f func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f()
		return false
	}
	for step := 0; step < 600; step++ {
		// A random range inside one page and the volume.
		p := rng.Intn(len(s.pages))
		lo, hi := max(p*testPage, lead), min((p+1)*testPage, lead+size)
		off := lo + rng.Intn(hi-lo)
		n := 1 + rng.Intn(hi-off)
		a := s.origin + mem.Addr(off)
		written := s.written
		switch rng.Intn(3) {
		case 0:
			if s.shared[p] {
				if !panics(func() { s.write(a, n) }) {
					t.Fatalf("step %d: a write into interned page %d did not panic", step, p)
				}
				refused++
				break
			}
			if s.pages[p] == nil {
				written++
			}
			b := s.write(a, n)
			for i := range b {
				b[i] = byte(rng.Uint64())
			}
			copy(ref[off-lead:], b)
		case 1:
			got := s.read(a, n)
			if !bytes.Equal(got, ref[off-lead:off-lead+n]) {
				t.Fatalf("step %d: read [%#x,+%d) differs from the reference", step, a, n)
			}
		case 2:
			// Pages 1 to 29 lie wholly inside the volume.
			p = 1 + rng.Intn(29)
			pa := s.origin + mem.Addr(p*testPage)
			img := pool[rng.Intn(len(pool))]
			copy(scratch, img)
			if s.pages[p] != nil {
				if !panics(func() { s.intern(pa, scratch) }) {
					t.Fatalf("step %d: interning over set page %d did not panic", step, p)
				}
				refused++
				break
			}
			if _, known := s.images[string(img)]; !known {
				written++
			}
			s.intern(pa, scratch)
			clear(scratch) // the store must have kept its own copy
			copy(ref[int(pa-base):], img)
			interned++
		}
		if s.written != written {
			t.Fatalf("step %d: the store holds %d buffers, want %d", step, s.written, written)
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
	if interned == 0 || refused == 0 {
		t.Fatalf("%d pages interned and %d accesses refused, want some of each", interned, refused)
	}
	if !bytes.Equal(zeroPage[:], make([]byte, len(zeroPage))) {
		t.Fatal("the shared zero page was written")
	}
}

// TestStoreSharesInternedPages checks that pages interned with the same
// image share one buffer, that writing one of them panics and leaves
// every sharer as it was, and that interning over a written page panics.
func TestStoreSharesInternedPages(t *testing.T) {
	s := newStore(0, 4*testPage, testPage, 0)
	img := bytes.Repeat([]byte{0xA5}, testPage)
	for p := range 3 {
		s.intern(mem.Addr(p*testPage), img)
	}
	if s.written != 1 {
		t.Fatalf("three sharers of one image hold %d buffers, want 1", s.written)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("a write into a shared page", func() { s.write(testPage+7, 1)[0] = 0 })
	for p := range 3 {
		if got := s.read(mem.Addr(p*testPage+7), 1)[0]; got != 0xA5 {
			t.Fatalf("sharer %d reads %#x after the refused write", p, got)
		}
	}
	s.write(3*testPage, 1)[0] = 1
	mustPanic("interning over a written page", func() { s.intern(3*testPage, img) })
	if s.written != 2 || s.shared[3] || s.read(3*testPage, 1)[0] != 1 {
		t.Fatal("the refused intern changed the written page")
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
}

// TestStoreReadWriteRoundTrip is the byte round trip that lived on the
// memory image before the volume took its bytes over.
func TestStoreReadWriteRoundTrip(t *testing.T) {
	s := newStore(64, 4096, testPage, 64)
	payload := []byte("the quick brown fox")
	copy(s.write(128, len(payload)), payload)
	if got := s.read(128, len(payload)); !bytes.Equal(got, payload) {
		t.Errorf("round trip = %q, want %q", got, payload)
	}
}

// TestStoreScalarLittleEndian checks the volume's multi-byte fields are
// little-endian: a FAT cell through setFAT and readFAT, the boot sector's
// 32-bit total-sector count, and a 64-bit value in the last bytes of the
// first data cluster's page.
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
	a := fs.clusterAddr(minCluster+1) - 8
	binary.LittleEndian.PutUint64(fs.vol.write(a, 8), 0x0123456789ABCDEF)
	if got := binary.LittleEndian.Uint64(fs.vol.read(a, 8)); got != 0x0123456789ABCDEF {
		t.Errorf("64-bit value at the end of a page = %#x", got)
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
