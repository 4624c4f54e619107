package fatfs

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/mem"
)

// fuzzDir is FuzzFS's model of one directory: its live files and
// subdirectories.
type fuzzDir struct {
	d     Dir
	slots int // entry capacity; 0 for the fixed root
	files map[string]bool
	subs  map[string]*fuzzDir
	raws  [][11]byte // the names Populate filled it with, if it did
}

func newFuzzDir(d Dir, slots int) *fuzzDir {
	return &fuzzDir{d: d, slots: slots, files: map[string]bool{}, subs: map[string]*fuzzDir{}}
}

func (m *fuzzDir) empty() bool { return len(m.files) == 0 && len(m.subs) == 0 }

// names returns the directory's live names in sorted order.
func (m *fuzzDir) names() []string {
	var out []string
	for n := range m.files {
		out = append(out, n)
	}
	for n := range m.subs {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// firstFit is the naive reference for allocChainContiguous: the lowest
// run of count free clusters, scanned from minCluster.
func firstFit(fs *FS, count int) int {
	run := 0
	for cl := minCluster; cl < fs.nclusters+minCluster; cl++ {
		if fs.fat(cl) != fatFree {
			run = 0
			continue
		}
		if run++; run == count {
			return cl - count + 1
		}
	}
	return 0
}

// capacityErr reports whether err is a refusal for lack of room, which
// the model does not predict.
func capacityErr(err error) bool {
	return err != nil && (strings.Contains(err.Error(), "directory full") ||
		strings.Contains(err.Error(), "contiguous"))
}

// fuzzOpBytes is the size of one encoded FuzzFS operation: opcode, then
// three argument bytes. fuzzMaxOps caps an input's length.
const (
	fuzzOpBytes = 4
	fuzzMaxOps  = 200
)

// FuzzFS decodes a byte stream into Mkdir and Populate calls on a small
// volume of 1 KB clusters, and Populates that give a directory the names
// another was populated with, so that the two share their cluster pages.
// It mirrors each in a model of the tree: a Populate into a directory
// that holds an entry, and a Mkdir into one that Populate filled, must be
// refused. After every operation it runs CheckConsistency (which also
// finds leaked clusters) and checks that the clusters below freeLow are
// in use and the rest free. Each Mkdir's first cluster must equal a
// naive first-fit scan from minCluster taken just before it, which guards
// the bump allocation. At the end every directory's listing must match
// the model. The seed corpus lives in testdata/fuzz/FuzzFS.
func FuzzFS(f *testing.F) {
	f.Add([]byte{0, 0, 1, 40, 1, 1, 30, 0, 0, 0, 2, 10, 2, 2, 1, 0, 0, 1, 3, 5, 0, 0, 1, 9})
	f.Add([]byte{0, 0, 1, 255, 0, 0, 2, 255, 0, 1, 3, 60, 1, 1, 200, 0, 1, 2, 9, 0, 2, 3, 1, 0})
	f.Add([]byte{0, 0, 0, 250, 0, 1, 1, 250, 1, 2, 200, 0, 0, 1, 2, 3, 2, 3, 2, 0, 0, 2, 4, 0})
	f.Add([]byte{0, 0, 1, 10, 0, 0, 2, 10, 1, 1, 40, 0, 2, 2, 1, 0, 1, 2, 7, 0, 0, 0, 1, 90})
	f.Fuzz(func(t *testing.T, ops []byte) {
		img := mem.NewImage(2 << 20)
		fs, err := Format(img, Config{TotalBytes: 1 << 20, SectorsPerCluster: 2, RootEntries: 64})
		if err != nil {
			t.Fatal(err)
		}
		root := newFuzzDir(fs.Root(), 0)
		dirs := []*fuzzDir{root}
		perCluster := fs.ClusterBytes() / DirEntrySize
		ops = ops[:min(len(ops), fuzzMaxOps*fuzzOpBytes)]
		for step := 0; len(ops) >= fuzzOpBytes; ops, step = ops[fuzzOpBytes:], step+1 {
			op, a, b, c := ops[0]%3, int(ops[1]), int(ops[2]), int(ops[3])
			dir := dirs[a%len(dirs)]
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("step %d (op %d): %s", step, op, fmt.Sprintf(format, args...))
			}
			switch op {
			case 0: // Mkdir
				name := fmt.Sprintf("D%02d", b%16)
				capEntries := 1 + c*4
				clusters := (capEntries*DirEntrySize + fs.ClusterBytes() - 1) / fs.ClusterBytes()
				want := firstFit(fs, clusters)
				d, err := fs.Mkdir(null, dir.d, name, capEntries)
				if _, dup := dir.subs[name]; dup || len(dir.raws) > 0 {
					if err == nil {
						fail("Mkdir %s over an existing name or into a populated directory succeeded", name)
					}
					break
				}
				if err != nil {
					if !capacityErr(err) {
						fail("Mkdir %s: %v", name, err)
					}
					break
				}
				if d.FirstCluster() != want {
					fail("Mkdir %s started at cluster %d, first fit is %d", name, d.FirstCluster(), want)
				}
				sub := newFuzzDir(d, clusters*perCluster)
				dir.subs[name] = sub
				dirs = append(dirs, sub)
			case 1, 2: // Populate, with fresh names or the names another holds
				if dir == root {
					break
				}
				var raws [][11]byte
				if op == 1 {
					raws = make([][11]byte, min(b%64, dir.slots))
					for i := range raws {
						raws[i], _ = EncodeName(fmt.Sprintf("P%03d", i))
					}
				} else if src := dirs[b%len(dirs)]; src.raws != nil {
					raws = src.raws[:min(len(src.raws), dir.slots)]
				} else {
					break
				}
				err := fs.Populate(dir.d, raws)
				if !dir.empty() {
					if err == nil {
						fail("Populate into a directory holding %v succeeded", dir.names())
					}
					break
				}
				if err != nil {
					fail("Populate %d names into %d slots: %v", len(raws), dir.slots, err)
				}
				for _, raw := range raws {
					dir.files[DecodeName(raw)] = true
				}
				dir.raws = raws
			}
			if err := fs.CheckConsistency(); err != nil {
				fail("%v", err)
			}
			for cl := minCluster; cl < fs.nclusters+minCluster; cl++ {
				if inUse := fs.fat(cl) != fatFree; inUse != (cl < fs.freeLow) {
					fail("cluster %d in use %v, freeLow %d", cl, inUse, fs.freeLow)
				}
			}
		}
		for _, m := range dirs {
			var got []string
			for _, e := range fs.ReadDir(null, m.d) {
				got = append(got, e.Name)
			}
			slices.Sort(got)
			if want := m.names(); !slices.Equal(got, want) {
				t.Fatalf("directory lists %v, model holds %v", got, want)
			}
		}
	})
}
