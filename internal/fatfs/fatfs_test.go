package fatfs

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/stats"
)

func newFS(t testing.TB) *FS {
	t.Helper()
	img := mem.NewImage(64 << 20)
	fs, err := Format(img, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

var null = NullAccess{}

func TestFormatLayout(t *testing.T) {
	fs := newFS(t)
	if fs.NumClusters() < 1000 {
		t.Fatalf("only %d clusters in a 48 MB volume", fs.NumClusters())
	}
	// Boot sector signature.
	sig := fs.vol.read(fs.base+510, 2)
	if sig[0] != 0x55 || sig[1] != 0xAA {
		t.Fatal("boot sector signature missing")
	}
	for cl := minCluster; cl < fs.NumClusters()+minCluster; cl++ {
		if fs.fat(cl) != fatFree {
			t.Fatalf("fresh volume has cluster %d in use", cl)
		}
	}
	if fs.freeLow != minCluster {
		t.Fatalf("fresh volume allocates from cluster %d", fs.freeLow)
	}
}

func TestFormatRejectsBadConfig(t *testing.T) {
	img := mem.NewImage(1 << 20)
	bad := []Config{
		{TotalBytes: 1 << 20, SectorsPerCluster: 3, RootEntries: 512},   // non-power-of-two
		{TotalBytes: 1 << 20, SectorsPerCluster: 256, RootEntries: 512}, // cluster past 64 KB
		{TotalBytes: 1 << 20, SectorsPerCluster: 8, RootEntries: 7},     // partial sector
		{TotalBytes: 10_000, SectorsPerCluster: 8, RootEntries: 512},    // too small
	}
	for i, cfg := range bad {
		if _, err := Format(img, cfg); err == nil {
			t.Errorf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
}

func TestNameRoundTrip(t *testing.T) {
	cases := []string{"FILE.TXT", "A", "12345678.123", "NOEXT", "F0001.DAT"}
	for _, name := range cases {
		raw, err := EncodeName(name)
		if err != nil {
			t.Fatalf("EncodeName(%q): %v", name, err)
		}
		if got := DecodeName(raw); got != name {
			t.Errorf("round trip %q -> %q", name, got)
		}
	}
}

func TestEncodeNameLowercases(t *testing.T) {
	raw, err := EncodeName("file.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := DecodeName(raw); got != "FILE.TXT" {
		t.Errorf("lowercase input became %q", got)
	}
}

func TestEncodeNameRejectsInvalid(t *testing.T) {
	bad := []string{"", "TOOLONGNAME.TXT", "X.LONG", "A/B.TXT", "SP ACE.T", ".EXT"}
	for _, name := range bad {
		if _, err := EncodeName(name); err == nil {
			t.Errorf("EncodeName(%q) accepted", name)
		}
	}
}

func TestLookupNotFound(t *testing.T) {
	fs := newFS(t)
	_, err := fs.Lookup(null, fs.Root(), "NOPE.TXT")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestMkdirAndNestedLookup(t *testing.T) {
	fs := newFS(t)
	d, err := fs.Mkdir(null, fs.Root(), "SUB", 1000)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := fs.Mkdir(null, d, "LEAF", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Populate(leaf, benchNames(t, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mkdir(null, fs.Root(), "SUB", 10); err == nil {
		t.Fatal("duplicate Mkdir accepted")
	}
	// Resolve /SUB/LEAF/F0000007 one component at a time.
	dir := fs.Root()
	var e Entry
	for _, name := range []string{"SUB", "LEAF", "F0000007"} {
		if e, err = fs.Lookup(null, dir, name); err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if e.IsDir() {
			dir, _ = e.Dir(fs)
		}
	}
	if e.IsDir() || e.Index != 7 {
		t.Fatalf("resolved %+v, want the file in slot 7", e)
	}
	if dir.FirstCluster() != leaf.FirstCluster() {
		t.Fatalf("resolved into cluster %d, LEAF starts at %d", dir.FirstCluster(), leaf.FirstCluster())
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMkdirCapacityMatchesPaper(t *testing.T) {
	// A 1000-entry directory must occupy exactly 32,000 bytes of entry
	// storage => 8 clusters of 4 KB.
	fs := newFS(t)
	d, err := fs.Mkdir(null, fs.Root(), "DIR0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	span, err := fs.Extent(d)
	if err != nil {
		t.Fatal(err)
	}
	if span.Size != 32<<10 {
		t.Fatalf("directory span = %d bytes, want %d (8×4KB clusters)", span.Size, 32<<10)
	}
}

func TestExtentContiguous(t *testing.T) {
	fs := newFS(t)
	// Directories of several sizes, nested and not, each take the next
	// clusters: every one is a single span, right after the one before.
	next := fs.clusterAddr(minCluster)
	parent := fs.Root()
	for i, capEntries := range []int{500, 1, 1000, 129, 128} {
		d, err := fs.Mkdir(null, parent, fmt.Sprintf("D%d", i), capEntries)
		if err != nil {
			t.Fatal(err)
		}
		span, err := fs.Extent(d)
		if err != nil {
			t.Fatalf("directory %d not contiguous: %v", i, err)
		}
		clusters := (capEntries*DirEntrySize + fs.ClusterBytes() - 1) / fs.ClusterBytes()
		if span.Base != next || span.Size != uint64(clusters*fs.ClusterBytes()) {
			t.Fatalf("directory %d spans [%#x,+%d), want [%#x,+%d)",
				i, span.Base, span.Size, next, clusters*fs.ClusterBytes())
		}
		next = span.Base + mem.Addr(span.Size)
		if i%2 == 0 {
			parent = d
		}
	}
}

func TestPopulateFillsDirectory(t *testing.T) {
	fs := newFS(t)
	d, err := fs.Mkdir(null, fs.Root(), "DIR0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Populate(d, benchNames(t, 1000)); err != nil {
		t.Fatal(err)
	}
	entries := fs.ReadDir(null, d)
	if len(entries) != 1000 {
		t.Fatalf("ReadDir returned %d entries, want 1000", len(entries))
	}
	// Random spot checks via Lookup.
	for _, i := range []int{0, 1, 499, 999} {
		name := fmt.Sprintf("F%07d", i)
		if _, err := fs.Lookup(null, d, name); err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPopulateOverflowRejected(t *testing.T) {
	fs := newFS(t)
	d, err := fs.Mkdir(null, fs.Root(), "SMALL", 128)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity rounds up to one cluster = 128 entries; 129 must fail.
	if err := fs.Populate(d, benchNames(t, 129)); err == nil {
		t.Fatal("overfull Populate accepted")
	}
	if err := fs.Populate(fs.Root(), benchNames(t, 1)); err == nil {
		t.Fatal("Populate of the root accepted")
	}
	// A directory that already holds an entry is refused, which keeps
	// the entry and its clusters.
	full, err := fs.Mkdir(null, fs.Root(), "D", 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mkdir(null, full, "SUB", 1); err != nil {
		t.Fatal(err)
	}
	if err := fs.Populate(full, benchNames(t, 4)); err == nil {
		t.Fatal("Populate of a directory that holds an entry accepted")
	}
	if _, err := fs.Lookup(null, full, "SUB"); err != nil {
		t.Fatalf("Lookup(SUB) after the refused Populate: %v", err)
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDeletedEntriesSkippedInLookup(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Mkdir(null, fs.Root(), "A", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mkdir(null, fs.Root(), "B", 1); err != nil {
		t.Fatal(err)
	}
	// Mark A's slot deleted, as a FAT unlink does.
	a, err := fs.Lookup(null, fs.Root(), "A")
	if err != nil {
		t.Fatal(err)
	}
	fs.vol.write(a.Addr, 1)[0] = 0xE5
	if _, err := fs.Lookup(null, fs.Root(), "A"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted entry found: %v", err)
	}
	// B sits after the deleted slot; lookup must skip, not stop.
	if _, err := fs.Lookup(null, fs.Root(), "B"); err != nil {
		t.Fatalf("lookup after deleted entry: %v", err)
	}
}

func TestConsistencyRandomOps(t *testing.T) {
	// Property: arbitrary Mkdir/Populate sequences keep the volume
	// consistent, and every name made is found where it was made.
	f := func(seed uint64) bool {
		img := mem.NewImage(16 << 20)
		fs, err := Format(img, Config{TotalBytes: 8 << 20, SectorsPerCluster: 8, RootEntries: 512})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(seed)
		dirs := []Dir{fs.Root()}
		names := map[Dir][]string{}
		populated := map[Dir]bool{}
		files := benchNames(t, 300)
		for op := 0; op < 120; op++ {
			d := dirs[rng.Intn(len(dirs))]
			switch rng.Intn(2) {
			case 0: // Mkdir
				name := fmt.Sprintf("D%04d", op)
				sub, err := fs.Mkdir(null, d, name, 1+rng.Intn(300))
				if populated[d] {
					if err == nil {
						return false
					}
					continue
				}
				if err != nil {
					return false
				}
				dirs = append(dirs, sub)
				names[d] = append(names[d], name)
			case 1: // Populate
				if d.IsRoot() || len(names[d]) != 0 {
					continue
				}
				span, err := fs.Extent(d)
				if err != nil {
					return false
				}
				n := rng.Intn(min(int(span.Size)/DirEntrySize, len(files)) + 1)
				if err := fs.Populate(d, files[:n]); err != nil {
					return false
				}
				for _, raw := range files[:n] {
					names[d] = append(names[d], DecodeName(raw))
				}
				populated[d] = n > 0
			}
		}
		for d, ns := range names {
			for _, name := range ns {
				if _, err := fs.Lookup(null, d, name); err != nil {
					return false
				}
			}
		}
		return fs.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupChargesProportionalToPosition(t *testing.T) {
	// The cost model must reflect the linear scan: finding the last
	// entry costs more than finding the first.
	fs := newFS(t)
	d, err := fs.Mkdir(null, fs.Root(), "DIR0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Populate(d, benchNames(t, 1000)); err != nil {
		t.Fatal(err)
	}
	var first, last countingAccess
	if _, err := fs.Lookup(&first, d, "F0000000"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(&last, d, "F0000999"); err != nil {
		t.Fatal(err)
	}
	// First entry: one sector load. Last entry: 63 sector loads (32,000
	// bytes) plus 7 FAT hops. The compare loop is strictly per-entry.
	if first.loads != 1 {
		t.Fatalf("first-entry lookup charged %d loads, want 1 sector", first.loads)
	}
	if last.loads < 60*first.loads {
		t.Fatalf("scan not linear: first=%d loads, last=%d loads", first.loads, last.loads)
	}
	if last.compute < 900*CompareCost {
		t.Fatalf("compare cost not per-entry: %v", last.compute)
	}
}

// benchNames encodes the benchmark file names F0000000, F0000001, ...
func benchNames(t testing.TB, n int) [][11]byte {
	t.Helper()
	raws := make([][11]byte, n)
	for i := range raws {
		raw, err := EncodeName(fmt.Sprintf("F%07d", i))
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	return raws
}

// countingAccess counts charged operations for cost-model tests.
type countingAccess struct {
	loads, stores int
	compute       float64
}

func (c *countingAccess) Load(mem.Addr, int)  { c.loads++ }
func (c *countingAccess) Store(mem.Addr, int) { c.stores++ }
func (c *countingAccess) Compute(x float64)   { c.compute += x }
