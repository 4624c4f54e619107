package coherence

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cache"
)

// These tests pin how the directory stores its state: one allocation per
// mapped page, never moved or grown, and a Reset that keeps every page.

// TestDirectoryOneAllocationPerPage maps 4,096 pages of a 288-node
// (NUMA256) directory and bounds the bytes that took: one 2,688-byte page
// each (64 five-word holder sets plus 16 owner words, an exact size class)
// plus what a page table grown to 4,096 entries allocates on its own. A
// directory that grows pooled storage by doubling and copying allocates
// about twice the pages' bytes.
func TestDirectoryOneAllocationPerPage(t *testing.T) {
	const (
		pages     = 4096
		pageBytes = 2688
	)
	var table [][]uint64
	tableBytes := allocatedBytes(func() {
		for p := 0; p < pages; p++ {
			table = extend(table, p+1)
		}
	})
	d := NewDirectory(288)
	if d.NumWords() != 5 {
		t.Fatalf("NumWords = %d, want 5", d.NumWords())
	}
	got := allocatedBytes(func() {
		for p := cache.Line(0); p < pages; p++ {
			d.AddSharer(p*pageLines+p%pageLines, Node(p%288))
		}
	})
	if limit := uint64(pages*pageBytes) + tableBytes; got > limit {
		t.Fatalf("mapping %d pages allocated %d bytes, want at most %d (%d per page + %d of page table)",
			pages, got, limit, pageBytes, tableBytes)
	}
	if d.TrackedLines() != pages {
		t.Fatalf("TrackedLines = %d, want %d", d.TrackedLines(), pages)
	}
}

// allocatedBytes returns the heap bytes f allocates. It holds the GC off:
// a collection started inside f allocates runtime records of its own,
// which would be charged to f.
func allocatedBytes(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestResetThenRetouchAllocatesNothing: Reset keeps every page mapped, so
// tracking the same lines again, on either width, allocates nothing.
func TestResetThenRetouchAllocatesNothing(t *testing.T) {
	for _, nodes := range []int{20, 288} {
		d := NewDirectory(nodes)
		inv := make([]uint64, d.NumWords())
		touch := func() {
			for l := cache.Line(0); l < 40*pageLines; l += 7 {
				d.AddSharer(l, Node(int(l)%nodes))
				d.AcquireExclusiveWords(l+1, Node(int(l+3)%nodes), inv)
			}
		}
		touch()
		if a := testing.AllocsPerRun(10, func() { d.Reset(); touch() }); a != 0 {
			t.Fatalf("%d nodes: Reset then re-touch allocated %v times per run, want 0", nodes, a)
		}
		d.Reset()
		if d.TrackedLines() != 0 {
			t.Fatalf("%d nodes: TrackedLines after Reset = %d", nodes, d.TrackedLines())
		}
	}
}

// TestOwnerLanesIndependent sets and clears the dirty owner of every line
// of one page on a MaxNodes-node directory, node MaxNodes-1 included, and
// checks after each step that no other line's owner moved: the owner
// fields share words, so a mask or shift slip would bleed into a lane
// next door.
func TestOwnerLanesIndependent(t *testing.T) {
	d := NewDirectory(MaxNodes)
	const base = 3 * pageLines
	want := make([]Node, pageLines)
	for i := range want {
		want[i] = NoOwner
	}
	check := func(step string) {
		t.Helper()
		for i, w := range want {
			if got := d.Owner(base + cache.Line(i)); got != w {
				t.Fatalf("%s: line %d owner = %d, want %d", step, i, got, w)
			}
		}
	}
	for i := range want {
		n := Node((MaxNodes - 1 - 37*i) % MaxNodes)
		if n < 0 {
			n += MaxNodes
		}
		d.SetOwner(base+cache.Line(i), n)
		want[i] = n
		check("spread owners")
	}
	for i := range want {
		d.SetOwner(base+cache.Line(i), MaxNodes-1)
		want[i] = MaxNodes - 1
		check("all owned by the top node")
	}
	for i := 0; i < pageLines; i += 2 {
		d.RemoveSharer(base+cache.Line(i), MaxNodes-1)
		want[i] = NoOwner
		check("even lines written back")
	}
	for i := 1; i < pageLines; i += 2 {
		d.InvalidateExcept(base+cache.Line(i), 0)
		want[i] = NoOwner
		check("odd lines invalidated")
	}
}
