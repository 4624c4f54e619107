package fatfs

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
)

// TestStoreMatchesFlatReference drives random writeAt/readAt/zero calls
// that straddle page boundaries against a flat []byte holding the same
// volume, and checks reads agree byte for byte. Reads must materialize no
// page, and the shared zero page must still be all zeros at the end.
func TestStoreMatchesFlatReference(t *testing.T) {
	const base, size = mem.Addr(4096), 5*pageBytes + 777
	s := newStore(base, size)
	ref := make([]byte, size)
	rng := stats.NewRNG(42)
	randRange := func() (mem.Addr, int) {
		// Bias starts toward page boundaries so most ranges span one.
		off := rng.Intn(size)
		if rng.Intn(2) == 0 {
			off = (1+rng.Intn(size/pageBytes))*pageBytes - 1 - rng.Intn(256)
		}
		n := 1 + rng.Intn(min(3*pageBytes/2, size-off))
		return base + mem.Addr(off), n
	}
	for step := 0; step < 400; step++ {
		a, n := randRange()
		off := int(a - base)
		switch rng.Intn(3) {
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
		}
	}
	for p := range s.pages {
		pg := s.pages[p]
		if pg == nil {
			pg = zeroPage[:]
		}
		lo := p * pageBytes
		hi := min(lo+pageBytes, size)
		if !bytes.Equal(pg[:hi-lo], ref[lo:hi]) {
			t.Fatalf("page %d differs from the reference", p)
		}
	}
	if !bytes.Equal(zeroPage[:], make([]byte, pageBytes)) {
		t.Fatal("the shared zero page was written")
	}
}

// TestStoreReadsDoNotMaterialize checks that read hands out the shared
// zero page, capacity-clipped so an append cannot write into it.
func TestStoreReadsDoNotMaterialize(t *testing.T) {
	s := newStore(0, 3*pageBytes)
	b := s.read(pageBytes+10, 32)
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
	s.zero(0, 3*pageBytes)
	if s.written != 0 {
		t.Fatal("zero materialized a page")
	}
}

// TestStoreReadWriteRoundTrip is the byte round trip that lived on the
// memory image before the volume took its bytes over.
func TestStoreReadWriteRoundTrip(t *testing.T) {
	s := newStore(64, 4096)
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
// 32-bit total-sector count, and a 64-bit value written across a page
// boundary.
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
	a := fs.base + pageBytes - 3
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
	s := newStore(64, 2*pageBytes)
	for _, c := range []struct {
		name string
		a    mem.Addr
		n    int
	}{
		{"past the end", 64 + 2*pageBytes - 8, 16},
		{"below the base", 0, 8},
		{"across a page", 64 + pageBytes - 4, 8},
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
