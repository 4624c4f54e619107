package coherence

import (
	"slices"
	"testing"

	"repro/internal/cache"
)

// fuzzPages are the pages FuzzDirectory draws lines from: two adjacent
// pages (so line 63 and line 64 sit across a page boundary), one a little
// further on, and a far page that makes the page index grow.
var fuzzPages = [...]cache.Line{0, 1, 7, 16383}

// fuzzOpBytes is the size of one encoded operation: opcode, line selector,
// then two big-endian 16-bit node selectors.
const fuzzOpBytes = 6

// FuzzDirectory decodes a byte stream into directory mutations on a
// narrow (20-node, AMD16) or wide (288-node, NUMA256) directory, applies
// each to the directory and to a map-based reference model, and after
// every operation compares the touched line's holders, owner and sharer
// count, the directory's tracked-line count, and every value the
// operation returned. A Reset empties the model too, after which every
// line of every fuzzed page must read untracked with no owner. The seed
// corpus lives in testdata/fuzz/FuzzDirectory.
func FuzzDirectory(f *testing.F) {
	f.Add(false, []byte{0, 0x3F, 0, 3, 0, 0, 0, 0x40, 0, 3, 0, 0, 3, 0x3F, 0, 3, 0, 4})
	f.Add(true, []byte{1, 0xC0, 0, 200, 0, 0, 5, 0xC0, 0, 70, 0, 0, 2, 0xC0, 0, 200, 0, 0})
	f.Fuzz(func(t *testing.T, wide bool, ops []byte) {
		nodes := 20
		if wide {
			nodes = 288
		}
		d := NewDirectory(nodes)
		model := make(map[cache.Line]*wideRef)
		get := func(l cache.Line) *wideRef {
			r := model[l]
			if r == nil {
				r = newWideRef()
				model[l] = r
			}
			return r
		}
		drop := func(l cache.Line) {
			if r := model[l]; r != nil && len(r.holders) == 0 {
				delete(model, l)
			}
		}
		inv := make([]uint64, d.NumWords())
		for ; len(ops) >= fuzzOpBytes; ops = ops[fuzzOpBytes:] {
			sel := ops[1]
			l := fuzzPages[sel>>6&3]*pageLines + cache.Line(sel&63)
			n := Node((int(ops[2])<<8 | int(ops[3])) % nodes)
			to := Node((int(ops[4])<<8 | int(ops[5])) % nodes)
			switch ops[0] % 9 {
			case 0:
				d.AddSharer(l, n)
				get(l).holders[n] = true
			case 1:
				d.SetOwner(l, n)
				r := get(l)
				r.holders[n] = true
				r.owner = n
			case 2:
				d.RemoveSharer(l, n)
				if r := model[l]; r != nil {
					delete(r.holders, n)
					if r.owner == n {
						r.owner = NoOwner
					}
					drop(l)
				}
			case 3:
				d.MoveSharer(l, n, to)
				if r := model[l]; r == nil || !r.holders[n] {
					get(l).holders[to] = true // the add fallback
				} else {
					delete(r.holders, n)
					r.holders[to] = true
					if r.owner == n {
						r.owner = to
					}
				}
			case 4, 5:
				want := fuzzAcquire(get(l), n)
				var got []Node
				if wide || ops[0]%9 == 5 {
					any := d.AcquireExclusiveWords(l, n, inv)
					got = nodesOf(inv)
					if any != (len(got) > 0) {
						t.Fatalf("AcquireExclusiveWords(%d, %d) = %v with invalidated %v", l, n, any, got)
					}
				} else {
					got = nodesOf([]uint64{d.AcquireExclusive(l, n)})
				}
				if !slices.Equal(got, want) {
					t.Fatalf("AcquireExclusive(%d, %d) invalidated %v, want %v", l, n, got, want)
				}
			case 6, 7:
				got := d.InvalidateExcept(l, n)
				var want []Node
				if r := model[l]; r != nil {
					want = fuzzInvalidate(r, n)
					drop(l)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("InvalidateExcept(%d, %d) = %v, want %v", l, n, got, want)
				}
			case 8:
				d.Reset()
				clear(model)
				fuzzCheckPages(t, d, model)
			}
			fuzzCheckLine(t, d, model[l], l)
			if d.TrackedLines() != len(model) {
				t.Fatalf("TrackedLines = %d, model tracks %d", d.TrackedLines(), len(model))
			}
		}
		fuzzCheckPages(t, d, model)
	})
}

// fuzzCheckPages compares every line of every fuzzed page with the model.
func fuzzCheckPages(t *testing.T, d *Directory, model map[cache.Line]*wideRef) {
	t.Helper()
	for _, p := range fuzzPages {
		for l := p * pageLines; l < (p+1)*pageLines; l++ {
			fuzzCheckLine(t, d, model[l], l)
		}
	}
}

// fuzzAcquire applies AcquireExclusive to a model line and returns the
// nodes it invalidates, ascending.
func fuzzAcquire(r *wideRef, keep Node) []Node {
	var out []Node
	for n := range r.holders {
		if n != keep {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	clear(r.holders)
	r.holders[keep] = true
	r.owner = keep
	return out
}

// fuzzInvalidate applies InvalidateExcept to a model line and returns the
// nodes it invalidates, ascending.
func fuzzInvalidate(r *wideRef, keep Node) []Node {
	var out []Node
	for n := range r.holders {
		if n != keep {
			out = append(out, n)
			delete(r.holders, n)
		}
	}
	slices.Sort(out)
	if r.owner != keep {
		r.owner = NoOwner
	}
	return out
}

// nodesOf lists the nodes of a holder-word set, ascending.
func nodesOf(words []uint64) []Node {
	var out []Node
	for w, x := range words {
		out = appendWord(out, x, w*64)
	}
	return out
}

// fuzzCheckLine compares line l's observable state with its model entry,
// nil meaning untracked.
func fuzzCheckLine(t *testing.T, d *Directory, r *wideRef, l cache.Line) {
	t.Helper()
	var want []Node
	owner := NoOwner
	if r != nil {
		for n := range r.holders {
			want = append(want, n)
		}
		slices.Sort(want)
		owner = r.owner
	}
	if got := d.Holders(l); !slices.Equal(got, want) {
		t.Fatalf("line %d: Holders = %v, model %v", l, got, want)
	}
	if got := d.Owner(l); got != owner {
		t.Fatalf("line %d: Owner = %d, model %d", l, got, owner)
	}
	if got := d.SharerCount(l); got != len(want) {
		t.Fatalf("line %d: SharerCount = %d, model %d", l, got, len(want))
	}
	if got := d.HasHolders(l); got != (len(want) > 0) {
		t.Fatalf("line %d: HasHolders = %v, model has %d holders", l, got, len(want))
	}
	words := make([]uint64, d.NumWords())
	if any := d.CopyHolderWords(l, words); any != (len(want) > 0) || !slices.Equal(nodesOf(words), want) {
		t.Fatalf("line %d: CopyHolderWords = %v %v, model %v", l, any, nodesOf(words), want)
	}
}
