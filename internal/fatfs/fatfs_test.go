package fatfs

import (
	"bytes"
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
	if fs.FreeClusters() != fs.NumClusters() {
		t.Fatalf("fresh volume has %d free of %d clusters",
			fs.FreeClusters(), fs.NumClusters())
	}
}

func TestFormatRejectsBadConfig(t *testing.T) {
	img := mem.NewImage(1 << 20)
	bad := []Config{
		{TotalBytes: 1 << 20, SectorsPerCluster: 3, RootEntries: 512}, // non-power-of-two
		{TotalBytes: 1 << 20, SectorsPerCluster: 8, RootEntries: 7},   // partial sector
		{TotalBytes: 10_000, SectorsPerCluster: 8, RootEntries: 512},  // too small
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

func TestCreateLookup(t *testing.T) {
	fs := newFS(t)
	data := []byte("hello fat world")
	if _, err := fs.Create(null, fs.Root(), "HELLO.TXT", data); err != nil {
		t.Fatal(err)
	}
	e, err := fs.Lookup(null, fs.Root(), "HELLO.TXT")
	if err != nil {
		t.Fatal(err)
	}
	if e.Size != uint32(len(data)) {
		t.Fatalf("Size = %d, want %d", e.Size, len(data))
	}
	got, err := fs.ReadAll(null, e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("contents %q, want %q", got, data)
	}
}

func TestLookupNotFound(t *testing.T) {
	fs := newFS(t)
	_, err := fs.Lookup(null, fs.Root(), "NOPE.TXT")
	if _, ok := err.(ErrNotFound); !ok {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestCreateDuplicateRejected(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Create(null, fs.Root(), "X.TXT", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(null, fs.Root(), "X.TXT", nil); err == nil {
		t.Fatal("duplicate create accepted")
	}
}

func TestMultiClusterFile(t *testing.T) {
	fs := newFS(t)
	// 3.5 clusters of data.
	data := make([]byte, fs.ClusterBytes()*7/2)
	rng := stats.NewRNG(1)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	e, err := fs.Create(null, fs.Root(), "BIG.BIN", data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll(null, e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-cluster contents corrupted")
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFileRewrites(t *testing.T) {
	fs := newFS(t)
	e, err := fs.Create(null, fs.Root(), "F.TXT", []byte("short"))
	if err != nil {
		t.Fatal(err)
	}
	free := fs.FreeClusters()
	long := make([]byte, fs.ClusterBytes()*2+17)
	for i := range long {
		long[i] = byte(i)
	}
	if err := fs.WriteFile(null, &e, long); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll(null, e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, long) {
		t.Fatal("rewrite corrupted contents")
	}
	if fs.FreeClusters() != free-2 { // was 1 cluster, now 3
		t.Fatalf("free clusters %d, want %d", fs.FreeClusters(), free-2)
	}
	// Shrink back, chain must be released.
	if err := fs.WriteFile(null, &e, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if fs.FreeClusters() != free {
		t.Fatalf("shrink leaked clusters: %d free, want %d", fs.FreeClusters(), free)
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestUnlinkFreesClusters(t *testing.T) {
	fs := newFS(t)
	free := fs.FreeClusters()
	data := make([]byte, fs.ClusterBytes()*2)
	if _, err := fs.Create(null, fs.Root(), "D.BIN", data); err != nil {
		t.Fatal(err)
	}
	if fs.FreeClusters() != free-2 {
		t.Fatalf("allocation accounting off: %d free", fs.FreeClusters())
	}
	if err := fs.Unlink(null, fs.Root(), "D.BIN"); err != nil {
		t.Fatal(err)
	}
	if fs.FreeClusters() != free {
		t.Fatal("unlink leaked clusters")
	}
	if _, err := fs.Lookup(null, fs.Root(), "D.BIN"); err == nil {
		t.Fatal("unlinked file still found")
	}
	// The slot must be reusable.
	if _, err := fs.Create(null, fs.Root(), "E.BIN", nil); err != nil {
		t.Fatal(err)
	}
}

func TestMkdirAndNestedLookup(t *testing.T) {
	fs := newFS(t)
	d, err := fs.Mkdir(null, fs.Root(), "SUB", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(null, d, "LEAF.TXT", []byte("leaf")); err != nil {
		t.Fatal(err)
	}
	e, err := fs.LookupPath(null, "/SUB/LEAF.TXT")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll(null, e)
	if err != nil || string(got) != "leaf" {
		t.Fatalf("ReadAll = %q, %v", got, err)
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
	// Fragment the FAT: create a file, a dir, delete the file, make
	// another dir — the second dir must still be contiguous.
	if _, err := fs.Create(null, fs.Root(), "GAP.BIN", make([]byte, fs.ClusterBytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mkdir(null, fs.Root(), "D1", 500); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(null, fs.Root(), "GAP.BIN"); err != nil {
		t.Fatal(err)
	}
	d2, err := fs.Mkdir(null, fs.Root(), "D2", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Extent(d2); err != nil {
		t.Fatalf("directory not contiguous: %v", err)
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
}

func TestUnlinkNonEmptyDirRejected(t *testing.T) {
	fs := newFS(t)
	d, err := fs.Mkdir(null, fs.Root(), "SUB", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(null, d, "F.TXT", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(null, fs.Root(), "SUB"); err == nil {
		t.Fatal("unlink of non-empty directory accepted")
	}
	if err := fs.Unlink(null, d, "F.TXT"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(null, fs.Root(), "SUB"); err != nil {
		t.Fatalf("unlink of emptied directory failed: %v", err)
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDeletedEntriesSkippedInLookup(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Create(null, fs.Root(), "A.TXT", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(null, fs.Root(), "B.TXT", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(null, fs.Root(), "A.TXT"); err != nil {
		t.Fatal(err)
	}
	// B sits after the deleted slot; lookup must skip, not stop.
	if _, err := fs.Lookup(null, fs.Root(), "B.TXT"); err != nil {
		t.Fatalf("lookup after deleted entry: %v", err)
	}
}

func TestConsistencyRandomOps(t *testing.T) {
	// Property: arbitrary create/write/delete sequences keep the volume
	// consistent and never lose allocated clusters.
	f := func(seed uint64) bool {
		img := mem.NewImage(16 << 20)
		fs, err := Format(img, Config{TotalBytes: 8 << 20, SectorsPerCluster: 8, RootEntries: 512})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(seed)
		live := map[string][]byte{}
		for op := 0; op < 120; op++ {
			name := fmt.Sprintf("F%04d.DAT", rng.Intn(40))
			switch rng.Intn(3) {
			case 0: // create
				if _, exists := live[name]; exists {
					continue
				}
				data := make([]byte, rng.Intn(3*fs.ClusterBytes()))
				for i := range data {
					data[i] = byte(rng.Uint64())
				}
				if _, err := fs.Create(null, fs.Root(), name, data); err != nil {
					return false
				}
				live[name] = data
			case 1: // rewrite
				if _, exists := live[name]; !exists {
					continue
				}
				e, err := fs.Lookup(null, fs.Root(), name)
				if err != nil {
					return false
				}
				data := make([]byte, rng.Intn(2*fs.ClusterBytes()))
				for i := range data {
					data[i] = byte(rng.Uint64())
				}
				if err := fs.WriteFile(null, &e, data); err != nil {
					return false
				}
				live[name] = data
			case 2: // delete
				if _, exists := live[name]; !exists {
					continue
				}
				if err := fs.Unlink(null, fs.Root(), name); err != nil {
					return false
				}
				delete(live, name)
			}
		}
		// All live files readable with correct contents.
		for name, want := range live {
			e, err := fs.Lookup(null, fs.Root(), name)
			if err != nil {
				return false
			}
			got, err := fs.ReadAll(null, e)
			if err != nil || !bytes.Equal(got, want) {
				return false
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
