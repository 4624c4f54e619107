package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocAlignment(t *testing.T) {
	im := NewImage(1 << 20)
	a, err := im.Alloc(10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a%64 != 0 {
		t.Errorf("addr %#x not 64-byte aligned", a)
	}
	b, err := im.Alloc(10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b < a+10 {
		t.Errorf("allocations overlap: %#x then %#x", a, b)
	}
	if b%64 != 0 {
		t.Errorf("addr %#x not 64-byte aligned", b)
	}
}

func TestAllocDefaultAlign(t *testing.T) {
	im := NewImage(1024)
	a, err := im.Alloc(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a%8 != 0 {
		t.Errorf("default alignment should be 8, got addr %#x", a)
	}
}

func TestAllocErrors(t *testing.T) {
	im := NewImage(1024)
	if _, err := im.Alloc(0, 8); err == nil {
		t.Error("zero-size alloc accepted")
	}
	if _, err := im.Alloc(8, 3); err == nil {
		t.Error("non-power-of-two alignment accepted")
	}
	if _, err := im.Alloc(4096, 8); err == nil {
		t.Error("oversized alloc accepted")
	}
}

func TestAllocExhaustion(t *testing.T) {
	im := NewImage(512)
	var last error
	for i := 0; i < 100; i++ {
		if _, err := im.Alloc(64, 8); err != nil {
			last = err
			break
		}
	}
	if last == nil {
		t.Fatal("image never exhausted")
	}
}

func TestSpanPredicates(t *testing.T) {
	s := Span{Base: 100, Size: 50}
	if !s.Contains(100) || !s.Contains(149) {
		t.Error("Contains misses endpoints")
	}
	if s.Contains(99) || s.Contains(150) {
		t.Error("Contains includes outside addresses")
	}
	if !s.Overlaps(Span{Base: 140, Size: 50}) {
		t.Error("overlapping spans reported disjoint")
	}
	if s.Overlaps(Span{Base: 150, Size: 50}) {
		t.Error("adjacent spans reported overlapping")
	}
}

func TestObjectRegistry(t *testing.T) {
	im := NewImage(1 << 20)
	a, err := im.AllocObject("alpha", 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := im.AllocObject("beta", 200)
	if err != nil {
		t.Fatal(err)
	}
	if got := im.ObjectAt(a.Base); got != a {
		t.Errorf("ObjectAt(alpha base) = %v", got)
	}
	if got := im.ObjectAt(a.Base + 99); got != a {
		t.Errorf("ObjectAt(alpha end-1) = %v", got)
	}
	if got := im.ObjectAt(b.Base + 1); got != b {
		t.Errorf("ObjectAt(beta+1) = %v", got)
	}
	if got := im.ObjectAt(0); got != nil {
		t.Errorf("ObjectAt(0) = %v, want nil", got)
	}
	if a.Base%64 != 0 || b.Base%64 != 0 {
		t.Error("objects must be cache-line aligned")
	}
}

func TestObjectsNeverOverlap(t *testing.T) {
	im := NewImage(1 << 20)
	f := func(sizes []uint16) bool {
		for i, s := range sizes {
			if i > 40 {
				break
			}
			size := uint64(s%1000) + 1
			if _, err := im.AllocObject("o", size); err != nil {
				return true // exhaustion is fine
			}
		}
		objs := im.Objects()
		for i := 1; i < len(objs); i++ {
			if objs[i-1].Overlaps(objs[i].Span) {
				return false
			}
			if objs[i-1].Base > objs[i].Base {
				return false // must be sorted
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAddressZeroReserved(t *testing.T) {
	im := NewImage(1024)
	a, err := im.Alloc(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a == 0 {
		t.Error("address 0 must stay reserved as a nil sentinel")
	}
}
