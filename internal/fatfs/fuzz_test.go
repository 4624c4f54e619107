package fatfs

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/mem"
)

// fuzzDir is FuzzFS's model of one directory: its live files with their
// contents and its live subdirectories.
type fuzzDir struct {
	d     Dir
	slots int // entry capacity; 0 for the fixed root
	files map[string][]byte
	subs  map[string]*fuzzDir
}

func newFuzzDir(d Dir, slots int) *fuzzDir {
	return &fuzzDir{d: d, slots: slots, files: map[string][]byte{}, subs: map[string]*fuzzDir{}}
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

// fuzzPayload returns n deterministic bytes seeded by tag.
func fuzzPayload(n int, tag byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ tag
	}
	return b
}

// capacityErr reports whether err is a refusal for lack of room, which
// the model does not predict.
func capacityErr(err error) bool {
	return err != nil && (strings.Contains(err.Error(), "directory full") ||
		strings.Contains(err.Error(), "no free clusters") ||
		strings.Contains(err.Error(), "contiguous"))
}

// fuzzOpBytes is the size of one encoded FuzzFS operation: opcode, then
// three argument bytes. fuzzMaxOps caps an input's length.
const (
	fuzzOpBytes = 4
	fuzzMaxOps  = 200
)

// FuzzFS decodes a byte stream into Mkdir, Populate, Create, Update
// (WriteFile) and Unlink calls on a small volume of 1 KB clusters, mirrors
// each in a model of the tree, and after every operation runs
// CheckConsistency (which also finds leaked clusters) and checks that
// every cluster below freeLow is in use. Each Mkdir's first cluster must
// equal a naive first-fit scan from minCluster taken just before it, which
// guards the freeLow shortcut. Touched files are read back, and at the end
// every directory's listing must match the model. The seed corpus lives
// in testdata/fuzz/FuzzFS.
func FuzzFS(f *testing.F) {
	f.Add([]byte{0, 0, 1, 40, 1, 1, 30, 0, 2, 1, 3, 90, 3, 1, 0, 200, 4, 1, 0, 0, 0, 0, 2, 10})
	f.Add([]byte{2, 0, 1, 255, 2, 0, 2, 255, 0, 0, 3, 60, 4, 0, 1, 0, 0, 0, 4, 60, 3, 0, 0, 9})
	f.Add([]byte{0, 0, 0, 250, 0, 1, 1, 250, 1, 2, 200, 0, 4, 0, 0, 0, 0, 0, 2, 3, 4, 1, 0, 0})
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
			op, a, b, c := ops[0]%5, int(ops[1]), int(ops[2]), int(ops[3])
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
				if _, dup := dir.subs[name]; dup {
					if err == nil {
						fail("Mkdir %s over an existing name succeeded", name)
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
			case 1: // Populate an empty subdirectory
				if dir == root || !dir.empty() {
					break
				}
				n := min(b%64, dir.slots)
				raws := make([][11]byte, n)
				for i := range raws {
					raws[i], _ = EncodeName(fmt.Sprintf("P%03d", i))
					dir.files[fmt.Sprintf("P%03d", i)] = []byte{}
				}
				if err := fs.Populate(dir.d, raws); err != nil {
					fail("Populate %d of %d slots: %v", n, dir.slots, err)
				}
			case 2: // Create
				name := fmt.Sprintf("F%02d", b%24)
				data := fuzzPayload(c*37%(3*fs.ClusterBytes()+1), byte(step))
				_, err := fs.Create(null, dir.d, name, data)
				if _, dup := dir.files[name]; dup {
					if err == nil {
						fail("Create %s over an existing name succeeded", name)
					}
					break
				}
				if err != nil {
					if !capacityErr(err) {
						fail("Create %s: %v", name, err)
					}
					break
				}
				dir.files[name] = data
			case 3: // Update
				names := dir.names()
				if len(names) == 0 {
					break
				}
				name := names[b%len(names)]
				if _, isFile := dir.files[name]; !isFile {
					break
				}
				e, err := fs.Lookup(null, dir.d, name)
				if err != nil {
					fail("Lookup %s: %v", name, err)
				}
				data := fuzzPayload(c*53%(4*fs.ClusterBytes()+1), byte(step))
				if err := fs.WriteFile(null, &e, data); err != nil {
					if !capacityErr(err) {
						fail("WriteFile %s: %v", name, err)
					}
					data = []byte{}
				}
				dir.files[name] = data
			case 4: // Unlink
				names := dir.names()
				if len(names) == 0 {
					break
				}
				name := names[b%len(names)]
				err := fs.Unlink(null, dir.d, name)
				sub, isDir := dir.subs[name]
				if isDir && !sub.empty() {
					if err == nil {
						fail("Unlink of non-empty directory %s succeeded", name)
					}
					break
				}
				if err != nil {
					fail("Unlink %s: %v", name, err)
				}
				if isDir {
					delete(dir.subs, name)
					dirs = slices.DeleteFunc(dirs, func(m *fuzzDir) bool { return m == sub })
				} else {
					delete(dir.files, name)
				}
			}
			if err := fs.CheckConsistency(); err != nil {
				fail("%v", err)
			}
			for cl := minCluster; cl < fs.freeLow; cl++ {
				if fs.fat(cl) == fatFree {
					fail("cluster %d is free below freeLow %d", cl, fs.freeLow)
				}
			}
		}
		for _, m := range dirs {
			var got []string
			for _, e := range fs.ReadDir(null, m.d) {
				got = append(got, e.Name)
				if want, isFile := m.files[e.Name]; isFile {
					data, err := fs.ReadAll(null, e)
					if err != nil || !bytes.Equal(data, want) {
						t.Fatalf("file %s reads back %d bytes (%v), want %d", e.Name, len(data), err, len(want))
					}
				}
			}
			slices.Sort(got)
			if want := m.names(); !slices.Equal(got, want) {
				t.Fatalf("directory lists %v, model holds %v", got, want)
			}
		}
	})
}
