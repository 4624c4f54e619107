// Package mem provides the simulated physical address space: a bump
// allocator and a registry of named object spans.
//
// An Image holds addresses only, no bytes. Timing is charged by the
// machine model (internal/machine), which consults the same addresses;
// the one structure with real contents, the FAT volume, keeps its bytes
// in its own store (internal/fatfs) at the addresses it allocated here.
package mem

import (
	"fmt"
	"sort"
)

// Addr is a simulated physical address.
type Addr uint64

// Span is a contiguous address range [Base, Base+Size).
type Span struct {
	Base Addr
	Size uint64
}

// End returns the first address past the span.
func (s Span) End() Addr { return s.Base + Addr(s.Size) }

// Contains reports whether a falls inside the span.
func (s Span) Contains(a Addr) bool { return a >= s.Base && a < s.End() }

// Overlaps reports whether two spans share any address.
func (s Span) Overlaps(o Span) bool { return s.Base < o.End() && o.Base < s.End() }

// Object is a named allocation, the unit the O2 scheduler places in caches.
type Object struct {
	Span
	Name string
}

// Image is a simulated physical address space: a bump allocator and the
// object registry. It holds no bytes.
type Image struct {
	limit   int // address-space size; Alloc never hands out past it
	next    Addr
	objects []*Object // sorted by Base
}

// NewImage creates an address space of size bytes. Allocations start at
// address 64 so that address 0 can serve as a "nil" sentinel.
func NewImage(size int) *Image {
	if size <= 0 {
		panic("mem: image size must be positive")
	}
	return &Image{limit: size, next: 64}
}

// Size returns the address-space size in bytes.
func (im *Image) Size() int { return im.limit }

// Used returns the number of bytes handed out so far.
func (im *Image) Used() uint64 { return uint64(im.next) }

// Alloc reserves size bytes aligned to align (which must be a power of
// two; 0 means 8). It returns an error when the image is exhausted.
func (im *Image) Alloc(size uint64, align uint64) (Addr, error) {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("mem: alignment %d is not a power of two", align)
	}
	if size == 0 {
		return 0, fmt.Errorf("mem: zero-size allocation")
	}
	base := (uint64(im.next) + align - 1) &^ (align - 1)
	if base+size > uint64(im.limit) {
		return 0, fmt.Errorf("mem: out of memory: need %d bytes at %#x, image is %d bytes",
			size, base, im.limit)
	}
	im.next = Addr(base + size)
	return Addr(base), nil
}

// ImageMark is a point in an image's allocation history, taken with Mark
// and restored with ResetTo.
type ImageMark struct {
	next    Addr
	objects int
}

// Mark captures the allocator's current position so ResetTo can roll the
// image back to it. The sweep engine marks an image after the shared
// machine build and resets to the mark between repeats, reusing the build
// instead of re-populating it per repeat.
func (im *Image) Mark() ImageMark {
	return ImageMark{next: im.next, objects: len(im.objects)}
}

// ResetTo rolls the bump allocator back to a mark taken on this image.
// Objects registered after the mark must describe memory allocated after
// the mark (the arena contract, DESIGN.md §12): ResetTo drops every object
// based at or past the mark's allocation frontier and panics if the
// registry still holds more objects than the mark recorded (a post-mark
// registration inside pre-mark memory cannot be rolled back). The image
// owns no bytes, so nothing else is rolled back; whoever stores bytes at
// these addresses (the FAT volume) keeps them across the reset.
func (im *Image) ResetTo(m ImageMark) {
	keep := len(im.objects)
	for keep > 0 && im.objects[keep-1].Base >= m.next {
		im.objects[keep-1] = nil
		keep--
	}
	if keep > m.objects {
		panic(fmt.Sprintf("mem: ResetTo cannot drop object %q registered inside pre-mark memory",
			im.objects[keep-1].Name))
	}
	im.objects = im.objects[:keep]
	im.next = m.next
}

// AllocObject allocates a span and registers it as a named object. Objects
// are aligned to cache lines (64 bytes) so that distinct objects never
// share a line — false sharing would otherwise confound placement.
func (im *Image) AllocObject(name string, size uint64) (*Object, error) {
	base, err := im.Alloc(size, 64)
	if err != nil {
		return nil, err
	}
	return im.RegisterObject(name, Span{Base: base, Size: size})
}

// RegisterObject registers an existing span as a named object (used for
// structures that live inside a larger allocation, like FAT directories
// inside a volume). The span must not overlap a registered object.
func (im *Image) RegisterObject(name string, span Span) (*Object, error) {
	if span.Size == 0 {
		return nil, fmt.Errorf("mem: zero-size object %q", name)
	}
	if span.End() > Addr(im.limit) {
		return nil, fmt.Errorf("mem: object %q span [%#x,%#x) outside image", name, span.Base, span.End())
	}
	obj := &Object{Span: span, Name: name}
	i := sort.Search(len(im.objects), func(i int) bool {
		return im.objects[i].Base >= obj.Base
	})
	if i > 0 && im.objects[i-1].Overlaps(span) {
		return nil, fmt.Errorf("mem: object %q overlaps %q", name, im.objects[i-1].Name)
	}
	if i < len(im.objects) && im.objects[i].Overlaps(span) {
		return nil, fmt.Errorf("mem: object %q overlaps %q", name, im.objects[i].Name)
	}
	im.objects = append(im.objects, nil)
	copy(im.objects[i+1:], im.objects[i:])
	im.objects[i] = obj
	return obj, nil
}

// ObjectAt returns the registered object containing a, or nil.
func (im *Image) ObjectAt(a Addr) *Object {
	i := sort.Search(len(im.objects), func(i int) bool {
		return im.objects[i].Base > a
	})
	if i == 0 {
		return nil
	}
	if obj := im.objects[i-1]; obj.Contains(a) {
		return obj
	}
	return nil
}

// Objects returns all registered objects in address order. The caller must
// not mutate the slice.
func (im *Image) Objects() []*Object { return im.objects }
