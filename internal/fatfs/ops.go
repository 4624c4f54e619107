package fatfs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/mem"
)

// Dir identifies a directory: the root's fixed region or a subdirectory's
// cluster chain.
type Dir struct {
	fs           *FS
	firstCluster int // 0 for the root directory
}

// Root returns the root directory.
func (fs *FS) Root() Dir { return Dir{fs: fs} }

// IsRoot reports whether d is the root directory.
func (d Dir) IsRoot() bool { return d.firstCluster == 0 }

// FirstCluster returns the first cluster of a subdirectory (0 for root).
func (d Dir) FirstCluster() int { return d.firstCluster }

// Entry is a decoded directory entry.
type Entry struct {
	Name         string
	Attr         byte
	FirstCluster int
	Size         uint32

	// Index is the slot index within the containing directory; Addr is
	// the simulated address of the 32-byte entry.
	Index int
	Addr  mem.Addr
}

// IsDir reports whether the entry names a subdirectory.
func (e Entry) IsDir() bool { return e.Attr&attrDirectory != 0 }

// Dir converts a directory entry into a Dir handle.
func (e Entry) Dir(fs *FS) (Dir, error) {
	if !e.IsDir() {
		return Dir{}, fmt.Errorf("fatfs: %q is not a directory", e.Name)
	}
	return Dir{fs: fs, firstCluster: e.FirstCluster}, nil
}

// ErrNotFound is returned by Lookup when no entry matches. It is one
// value, not one per name, so a miss allocates nothing; callers that
// report it name what they looked up.
var ErrNotFound = errors.New("fatfs: name not found")

// forEachSlot visits directory slots in order until fn returns false.
// Slot loads are NOT charged here — visitors charge what they touch —
// but FAT hops between a subdirectory's clusters are.
func (fs *FS) forEachSlot(acc Access, d Dir, fn func(addr mem.Addr, idx int) bool) {
	if d.IsRoot() {
		for i := 0; i < fs.cfg.RootEntries; i++ {
			if !fn(fs.rootBase+mem.Addr(i*DirEntrySize), i) {
				return
			}
		}
		return
	}
	perCluster := fs.clusterBytes / DirEntrySize
	cl := d.firstCluster
	idx := 0
	for cl >= minCluster {
		base := fs.clusterAddr(cl)
		for s := 0; s < perCluster; s++ {
			if !fn(base+mem.Addr(s*DirEntrySize), idx) {
				return
			}
			idx++
		}
		next := fs.readFAT(acc, cl)
		if next >= fatEndOfFile {
			return
		}
		cl = int(next)
	}
}

// decodeEntry parses the dirent at addr (bytes must already be charged).
func (fs *FS) decodeEntry(addr mem.Addr, idx int) Entry {
	b := fs.vol.read(addr, DirEntrySize)
	var raw [11]byte
	copy(raw[:], b[:11])
	return Entry{
		Name:         DecodeName(raw),
		Attr:         b[11],
		FirstCluster: int(uint16(b[26]) | uint16(b[27])<<8),
		Size:         uint32(b[28]) | uint32(b[29])<<8 | uint32(b[30])<<16 | uint32(b[31])<<24,
		Index:        idx,
		Addr:         addr,
	}
}

// writeEntry emits a dirent at addr, charging acc.
func (fs *FS) writeEntry(acc Access, addr mem.Addr, raw [11]byte, attr byte, firstCluster int, size uint32) {
	acc.Store(addr, DirEntrySize)
	encodeEntry(fs.vol.write(addr, DirEntrySize), raw, attr, firstCluster, size)
}

// encodeEntry writes a dirent's 32 bytes into b.
func encodeEntry(b []byte, raw [11]byte, attr byte, firstCluster int, size uint32) {
	copy(b[:11], raw[:])
	b[11] = attr
	clear(b[12:26])
	binary.LittleEndian.PutUint16(b[26:], uint16(firstCluster))
	binary.LittleEndian.PutUint32(b[28:], size)
}

// Lookup scans d for name, charging acc for every entry read until the
// match — the paper's inner loop ("Search dir for file", Fig. 1). It
// returns ErrNotFound when the directory does not contain name.
//
// The loop is the simulator's hottest host-side code: it resolves the
// backing bytes once per 512-byte sector (as EFSL reads them) and
// accumulates the per-entry compare cost locally, charging it in one
// Compute call — the same total, without an interface call per slot.
// The scan itself runs inline over each contiguous slot region
// (scanRegion) instead of dispatching a closure per slot; the charge
// sequence — one sector load per boundary, every visited slot counted,
// FAT hops between a subdirectory's clusters — is identical.
func (fs *FS) Lookup(acc Access, d Dir, name string) (Entry, error) {
	raw, err := EncodeName(name)
	if err != nil {
		return Entry{}, err
	}
	// A matched slot's name bytes equal raw exactly, so the entry's
	// decoded name is DecodeName(raw). When the caller's name is already
	// that canonical form — every generated workload name is — reuse it
	// instead of allocating a fresh string per hit.
	canon := name
	if !isCanonicalName(name, &raw) {
		canon = DecodeName(raw)
	}
	compared := 0
	var found Entry
	var ok, stop bool
	if d.IsRoot() {
		found, ok, _ = fs.scanRegion(acc, fs.rootBase, fs.cfg.RootEntries, 0, &raw, canon, &compared)
	} else {
		perCluster := fs.clusterBytes / DirEntrySize
		cl := d.firstCluster
		idx := 0
		for cl >= minCluster {
			found, ok, stop = fs.scanRegion(acc, fs.clusterAddr(cl), perCluster, idx, &raw, canon, &compared)
			if ok || stop {
				break
			}
			idx += perCluster
			next := fs.readFAT(acc, cl)
			if next >= fatEndOfFile {
				break
			}
			cl = int(next)
		}
	}
	acc.Compute(float64(compared) * CompareCost)
	if !ok {
		return Entry{}, ErrNotFound
	}
	return found, nil
}

// isCanonicalName reports whether name is byte-for-byte what
// DecodeName(raw) would return, without allocating the comparison string.
func isCanonicalName(name string, raw *[11]byte) bool {
	baseLen := 8
	for baseLen > 0 && raw[baseLen-1] == ' ' {
		baseLen--
	}
	extLen := 3
	for extLen > 0 && raw[8+extLen-1] == ' ' {
		extLen--
	}
	want := baseLen
	if extLen > 0 {
		want += 1 + extLen
	}
	if len(name) != want {
		return false
	}
	for i := 0; i < baseLen; i++ {
		if name[i] != raw[i] {
			return false
		}
	}
	if extLen > 0 {
		if name[baseLen] != '.' {
			return false
		}
		for i := 0; i < extLen; i++ {
			if name[baseLen+1+i] != raw[8+i] {
				return false
			}
		}
	}
	return true
}

// scanRegion scans nslots contiguous directory slots starting at base for
// the encoded name raw, a whole sector at a time: one sector load and one
// fixed-size view of its bytes per sector, then its 16 slots at a fixed
// stride. Every visited slot, including the 0x00 end-of-directory slot,
// counts into *compared. base is sector aligned and nslots a whole number
// of sectors' slots, as the root directory and every cluster are. idx0 is
// the directory-wide index of the first slot; name is the decoded form of
// raw, stored on the matched entry. It returns the matched entry, whether
// a match was found, and whether the end-of-directory marker stopped the
// scan.
//
//o2:hotpath
func (fs *FS) scanRegion(acc Access, base mem.Addr, nslots, idx0 int, raw *[11]byte, name string, compared *int) (Entry, bool, bool) {
	// The 11-byte name compare runs as one 8-byte and one overlapping
	// 4-byte word compare (bytes 0-7 and 7-10); byte 7 is covered twice,
	// which is harmless.
	raw8 := binary.LittleEndian.Uint64(raw[0:8])
	raw4 := binary.LittleEndian.Uint32(raw[7:11])
	n := *compared
	for s := 0; s < nslots; s += slotsPerSector {
		addr := base + mem.Addr(s*DirEntrySize)
		acc.Load(addr, SectorSize)
		sector := (*[SectorSize]byte)(fs.vol.read(addr, SectorSize))
		for off := 0; off <= SectorSize-DirEntrySize; off += DirEntrySize {
			b := (*[DirEntrySize]byte)(sector[off:])
			n++
			switch b[0] {
			case 0x00: // end-of-directory marker
				*compared = n
				return Entry{}, false, true
			case 0xE5: // deleted
				continue
			}
			if binary.LittleEndian.Uint64(b[0:8]) != raw8 ||
				binary.LittleEndian.Uint32(b[7:11]) != raw4 {
				continue
			}
			*compared = n
			return Entry{
				Name:         name,
				Attr:         b[11],
				FirstCluster: int(uint16(b[26]) | uint16(b[27])<<8),
				Size:         uint32(b[28]) | uint32(b[29])<<8 | uint32(b[30])<<16 | uint32(b[31])<<24,
				Index:        idx0 + s + off/DirEntrySize,
				Addr:         addr + mem.Addr(off),
			}, true, false
		}
	}
	*compared = n
	return Entry{}, false, false
}

// LookupPath resolves a "/"-separated path from the root, charging every
// directory scan along the way.
func (fs *FS) LookupPath(acc Access, path string) (Entry, error) {
	d := fs.Root()
	var e Entry
	start := 0
	if len(path) > 0 && path[0] == '/' {
		start = 1
	}
	rest := path[start:]
	if rest == "" {
		return Entry{}, fmt.Errorf("fatfs: empty path %q", path)
	}
	for rest != "" {
		comp := rest
		if i := indexByte(rest, '/'); i >= 0 {
			comp, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		var err error
		e, err = fs.Lookup(acc, d, comp)
		if err != nil {
			return Entry{}, err
		}
		if rest != "" {
			d, err = e.Dir(fs)
			if err != nil {
				return Entry{}, err
			}
		}
	}
	return e, nil
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// findFreeSlot returns the first free slot address in d, charging the scan.
func (fs *FS) findFreeSlot(acc Access, d Dir) (mem.Addr, int, error) {
	var addr mem.Addr
	idx := -1
	fs.forEachSlot(acc, d, func(a mem.Addr, i int) bool {
		acc.Load(a, 1)
		b := fs.vol.read(a, 1)[0]
		if b == 0x00 || b == 0xE5 {
			addr, idx = a, i
			return false
		}
		return true
	})
	if idx < 0 {
		return 0, 0, fmt.Errorf("fatfs: directory full")
	}
	return addr, idx, nil
}

// Create adds a file named name to d with the given contents (which may be
// empty). It fails if the name already exists.
func (fs *FS) Create(acc Access, d Dir, name string, data []byte) (Entry, error) {
	raw, err := EncodeName(name)
	if err != nil {
		return Entry{}, err
	}
	if _, err := fs.Lookup(acc, d, name); err == nil {
		return Entry{}, fmt.Errorf("fatfs: %q already exists", name)
	}
	addr, idx, err := fs.findFreeSlot(acc, d)
	if err != nil {
		return Entry{}, err
	}
	first := 0
	if len(data) > 0 {
		first, err = fs.writeNewChain(acc, data)
		if err != nil {
			return Entry{}, err
		}
	}
	fs.writeEntry(acc, addr, raw, attrArchive, first, uint32(len(data)))
	return fs.decodeEntry(addr, idx), nil
}

// writeNewChain allocates clusters for data and writes it, returning the
// first cluster.
func (fs *FS) writeNewChain(acc Access, data []byte) (int, error) {
	first, prev := 0, 0
	for off := 0; off < len(data); off += fs.clusterBytes {
		cl, err := fs.allocCluster(acc)
		if err != nil {
			if first != 0 {
				fs.freeChain(acc, first)
			}
			return 0, err
		}
		if first == 0 {
			first = cl
		} else {
			fs.setFAT(acc, prev, uint16(cl))
		}
		prev = cl
		end := off + fs.clusterBytes
		if end > len(data) {
			end = len(data)
		}
		acc.Store(fs.clusterAddr(cl), end-off)
		fs.vol.writeAt(data[off:end], fs.clusterAddr(cl))
	}
	return first, nil
}

// Mkdir creates a subdirectory under parent with capacity for at least
// capEntries entries, allocated contiguously so the directory forms a
// single span (a CoreTime object). The paper's benchmark directories are
// created with capacity 1000.
func (fs *FS) Mkdir(acc Access, parent Dir, name string, capEntries int) (Dir, error) {
	raw, err := EncodeName(name)
	if err != nil {
		return Dir{}, err
	}
	if _, err := fs.Lookup(acc, parent, name); err == nil {
		return Dir{}, fmt.Errorf("fatfs: %q already exists", name)
	}
	if capEntries < 1 {
		capEntries = 1
	}
	bytes := capEntries * DirEntrySize
	clusters := (bytes + fs.clusterBytes - 1) / fs.clusterBytes
	first, err := fs.allocChainContiguous(acc, clusters)
	if err != nil {
		return Dir{}, err
	}
	// Zero the directory clusters (end-of-directory markers). A freed
	// file may have left bytes there; never-written pages are zero already.
	for i := 0; i < clusters; i++ {
		acc.Store(fs.clusterAddr(first+i), fs.clusterBytes)
	}
	fs.vol.zero(fs.clusterAddr(first), clusters*fs.clusterBytes)
	addr, _, err := fs.findFreeSlot(acc, parent)
	if err != nil {
		fs.freeChain(acc, first)
		return Dir{}, err
	}
	fs.writeEntry(acc, addr, raw, attrDirectory, first, 0)
	return Dir{fs: fs, firstCluster: first}, nil
}

// Populate bulk-creates one zero-length file in subdirectory d per
// pre-encoded name (see EncodeName), writing entries sequentially. It is
// the fast path for building benchmark directories (1,000 entries each)
// without O(n²) free-slot scans or per-directory name encoding: a tree
// whose directories hold the same names encodes them once. It assumes d
// is empty.
//
// d is filled a cluster at a time: each cluster's image is built in a
// scratch page and interned, so directories that hold the same names
// share their cluster bytes until one of them is written.
func (fs *FS) Populate(d Dir, raws [][11]byte) error {
	if d.IsRoot() {
		return fmt.Errorf("fatfs: Populate fills a subdirectory, not the root")
	}
	perCluster := fs.clusterBytes / DirEntrySize
	written := 0
	for cl := d.firstCluster; written < len(raws); {
		a := fs.clusterAddr(cl)
		copy(fs.fill, fs.vol.read(a, fs.clusterBytes))
		n := min(perCluster, len(raws)-written)
		for i, raw := range raws[written : written+n] {
			encodeEntry(fs.fill[i*DirEntrySize:], raw, attrArchive, 0, 0)
		}
		fs.vol.intern(a, fs.fill)
		written += n
		next := fs.fat(cl)
		if next >= fatEndOfFile {
			break
		}
		cl = int(next)
	}
	if written < len(raws) {
		return fmt.Errorf("fatfs: directory holds %d of %d entries", written, len(raws))
	}
	return nil
}

// ReadDir returns the live entries of d. Each slot read is charged.
func (fs *FS) ReadDir(acc Access, d Dir) []Entry {
	var out []Entry
	fs.forEachSlot(acc, d, func(addr mem.Addr, idx int) bool {
		acc.Load(addr, DirEntrySize)
		b := fs.vol.read(addr, 1)[0]
		if b == 0x00 {
			return false
		}
		if b == 0xE5 {
			return true
		}
		out = append(out, fs.decodeEntry(addr, idx))
		return true
	})
	return out
}

// ReadAll returns a file's contents, charging the chain walk and data
// loads.
func (fs *FS) ReadAll(acc Access, e Entry) ([]byte, error) {
	if e.IsDir() {
		return nil, fmt.Errorf("fatfs: %q is a directory", e.Name)
	}
	out := make([]byte, 0, e.Size)
	remaining := int(e.Size)
	if remaining == 0 {
		return out, nil
	}
	clusters, err := fs.chain(acc, e.FirstCluster)
	if err != nil {
		return nil, err
	}
	for _, cl := range clusters {
		n := remaining
		if n > fs.clusterBytes {
			n = fs.clusterBytes
		}
		a := fs.clusterAddr(cl)
		acc.Load(a, n)
		out = out[:len(out)+n]
		fs.vol.readAt(out[len(out)-n:], a)
		remaining -= n
		if remaining == 0 {
			break
		}
	}
	if remaining != 0 {
		return nil, fmt.Errorf("fatfs: %q chain shorter than size %d", e.Name, e.Size)
	}
	return out, nil
}

// WriteFile replaces the contents of the file entry e with data,
// reallocating its chain. If the volume has no room for data, the file is
// left empty and the error returned.
func (fs *FS) WriteFile(acc Access, e *Entry, data []byte) error {
	if e.IsDir() {
		return fmt.Errorf("fatfs: %q is a directory", e.Name)
	}
	if e.FirstCluster != 0 {
		fs.freeChain(acc, e.FirstCluster)
	}
	first := 0
	var err error
	if len(data) > 0 {
		first, err = fs.writeNewChain(acc, data)
	}
	e.FirstCluster, e.Size = first, uint32(len(data))
	if err != nil {
		// The old chain is gone; leave an empty file, not an entry
		// pointing at freed clusters.
		e.Size = 0
	}
	var raw [11]byte
	copy(raw[:], fs.vol.read(e.Addr, 11))
	fs.writeEntry(acc, e.Addr, raw, e.Attr, e.FirstCluster, e.Size)
	return err
}

// Unlink removes the named file or (empty) directory from d.
func (fs *FS) Unlink(acc Access, d Dir, name string) error {
	e, err := fs.Lookup(acc, d, name)
	if err != nil {
		return err
	}
	if e.IsDir() {
		sub, _ := e.Dir(fs)
		if len(fs.ReadDir(NullAccess{}, sub)) != 0 {
			return fmt.Errorf("fatfs: directory %q not empty", name)
		}
	}
	if e.FirstCluster != 0 {
		fs.freeChain(acc, e.FirstCluster)
	}
	acc.Store(e.Addr, 1)
	fs.vol.write(e.Addr, 1)[0] = 0xE5
	return nil
}

// Extent returns the contiguous byte span of a directory's entry storage,
// for registration as a CoreTime object. It fails if the chain is not
// contiguous (directories made with Mkdir always are).
func (fs *FS) Extent(d Dir) (mem.Span, error) {
	if d.IsRoot() {
		return mem.Span{Base: fs.rootBase, Size: uint64(fs.cfg.RootEntries * DirEntrySize)}, nil
	}
	// Walk the chain in place: each hop must be to the next cluster, so
	// the walk is strictly increasing and cannot cycle.
	first, n := d.firstCluster, 1
	for cl := first; ; cl++ {
		next := fs.fat(cl)
		if next >= fatEndOfFile {
			break
		}
		if int(next) != cl+1 {
			return mem.Span{}, fmt.Errorf("fatfs: directory chain not contiguous at cluster %d", next)
		}
		n++
	}
	return mem.Span{Base: fs.clusterAddr(first), Size: uint64(n * fs.clusterBytes)}, nil
}

// FreeClusters counts free FAT cells (host-side, uncharged).
func (fs *FS) FreeClusters() int {
	n := 0
	for i := minCluster; i < fs.nclusters+minCluster; i++ {
		if fs.fat(i) == fatFree {
			n++
		}
	}
	return n
}

// CheckConsistency validates the volume like a small fsck: every reachable
// chain is acyclic and terminated, no cluster belongs to two chains, file
// sizes fit their chains, and every FAT cell in use belongs to a reachable
// chain (no leaks). It returns the first problem found.
func (fs *FS) CheckConsistency() error {
	owner := make(map[int]string)
	var walk func(d Dir, path string) error
	walk = func(d Dir, path string) error {
		for _, e := range fs.ReadDir(NullAccess{}, d) {
			name := path + "/" + e.Name
			if e.FirstCluster == 0 {
				if e.IsDir() {
					return fmt.Errorf("fatfs: directory %s has no clusters", name)
				}
				if e.Size != 0 {
					return fmt.Errorf("fatfs: file %s has size %d but no clusters", name, e.Size)
				}
				continue
			}
			clusters, err := fs.chain(NullAccess{}, e.FirstCluster)
			if err != nil {
				return fmt.Errorf("fatfs: %s: %w", name, err)
			}
			for _, cl := range clusters {
				if prev, dup := owner[cl]; dup {
					return fmt.Errorf("fatfs: cluster %d owned by both %s and %s", cl, prev, name)
				}
				owner[cl] = name
			}
			if !e.IsDir() {
				capacity := len(clusters) * fs.clusterBytes
				if int(e.Size) > capacity {
					return fmt.Errorf("fatfs: %s size %d exceeds chain capacity %d", name, e.Size, capacity)
				}
			} else {
				sub, _ := e.Dir(fs)
				if err := walk(sub, name); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(fs.Root(), ""); err != nil {
		return err
	}
	for cl := minCluster; cl < fs.nclusters+minCluster; cl++ {
		if _, reached := owner[cl]; !reached && fs.fat(cl) != fatFree {
			return fmt.Errorf("fatfs: cluster %d is in use but no chain reaches it", cl)
		}
	}
	return nil
}
