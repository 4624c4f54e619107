// Package fatfs is an in-memory FAT16 file system living in the simulated
// machine's physical memory.
//
// It stands in for the paper's modified EFSL FAT implementation (§5):
// an in-memory image, no buffer cache, and a tight file-name lookup loop.
// Directory entries are the classic 32 bytes; the evaluation directories
// hold 1,000 entries each, so one directory occupies exactly 32,000 bytes
// of directory clusters — the same working-set arithmetic as the paper.
//
// Every scenario builds its directories once (Format, Mkdir, Populate)
// and then only reads them (Lookup, Extent), so the volume has no file
// data and no write path after the build: directories hold zero-length
// file entries and subdirectories, and no cluster is ever freed.
//
// Every metadata structure (boot sector, FAT, directory entries) is real
// bytes, parsed on every operation. The volume takes its addresses from
// the machine's address space (mem.Image) and keeps its bytes in its own
// paged store. Simulated cost is charged through the Access interface:
// operations performed with a NullAccess are free (setup), operations
// performed with an *exec.Batch charge the exact cache/DRAM latencies of
// the bytes they touch.
package fatfs

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/mem"
)

// Access abstracts who pays for the bytes an operation touches.
// *exec.Batch satisfies it.
type Access interface {
	Load(addr mem.Addr, n int)
	Store(addr mem.Addr, n int)
	Compute(cycles float64)
}

// NullAccess charges nothing; used while building images.
type NullAccess struct{}

// Load implements Access.
func (NullAccess) Load(mem.Addr, int) {}

// Store implements Access.
func (NullAccess) Store(mem.Addr, int) {}

// Compute implements Access.
func (NullAccess) Compute(float64) {}

// Cost constants for the lookup loop's per-entry computation, in cycles.
// The paper's modified EFSL had a "higher-performance inner loop for file
// name lookup": a handful of cycles per 32-byte entry compare.
const (
	CompareCost   = 4 // per directory entry name comparison
	FATDecodeCost = 2 // per FAT cell decode
)

// Geometry constants of FAT16.
const (
	SectorSize   = 512
	DirEntrySize = 32

	slotsPerSector = SectorSize / DirEntrySize

	attrReadOnly  = 0x01
	attrDirectory = 0x10
	attrArchive   = 0x20

	fatFree      = 0x0000
	fatEndOfFile = 0xFFFF
	fatReserved  = 0x0001
	minCluster   = 2 // clusters 0 and 1 are reserved in FAT
)

// Config sizes a volume.
type Config struct {
	// TotalBytes is the full volume size (boot sector + FAT + root
	// directory + data region).
	TotalBytes int
	// SectorsPerCluster sets the cluster size; 8 gives 4 KB clusters.
	SectorsPerCluster int
	// RootEntries is the fixed capacity of the root directory.
	RootEntries int
}

// DefaultConfig returns a volume sized for the paper's largest benchmark
// point (≈20 MB of directory data plus metadata).
func DefaultConfig() Config {
	return Config{
		TotalBytes:        48 << 20,
		SectorsPerCluster: 8,
		RootEntries:       1024,
	}
}

// FS is a formatted FAT16 volume.
type FS struct {
	vol  *store
	cfg  Config
	base mem.Addr

	fatBase   mem.Addr
	rootBase  mem.Addr
	dataBase  mem.Addr
	nclusters int // data clusters, numbered from minCluster

	clusterBytes int
	fill         []byte // Populate's scratch cluster image

	// freeLow is the first cluster no chain holds. Clusters are
	// allocated upward from it and never freed, so every cluster below
	// it is in use and every one from it up is free.
	freeLow int
}

// Format lays a fresh FAT16 volume into img's address space. The volume
// occupies a single allocation of cfg.TotalBytes.
func Format(img *mem.Image, cfg Config) (*FS, error) {
	if cfg.SectorsPerCluster <= 0 || cfg.SectorsPerCluster&(cfg.SectorsPerCluster-1) != 0 ||
		cfg.SectorsPerCluster*SectorSize > maxPageBytes {
		return nil, fmt.Errorf("fatfs: sectors per cluster %d must be a power of two from 1 to %d",
			cfg.SectorsPerCluster, maxPageBytes/SectorSize)
	}
	if cfg.RootEntries <= 0 || cfg.RootEntries*DirEntrySize%SectorSize != 0 {
		return nil, fmt.Errorf("fatfs: root entries %d must fill whole sectors", cfg.RootEntries)
	}
	clusterBytes := cfg.SectorsPerCluster * SectorSize
	if cfg.TotalBytes < 64*clusterBytes {
		return nil, fmt.Errorf("fatfs: volume of %d bytes too small", cfg.TotalBytes)
	}

	// Sector-align the volume so sector-granular directory reads line up
	// with hardware sector boundaries.
	base, err := img.Alloc(uint64(cfg.TotalBytes), SectorSize)
	if err != nil {
		return nil, fmt.Errorf("fatfs: allocating volume: %w", err)
	}

	// Estimate cluster count, then size the FAT to match. One iteration
	// is enough at our scales; verify the layout fits afterwards.
	totalSectors := cfg.TotalBytes / SectorSize
	rootSectors := cfg.RootEntries * DirEntrySize / SectorSize
	// sectors ≈ 1 (boot) + fatSectors + rootSectors + clusters*spc
	nclusters := (totalSectors - 1 - rootSectors) / cfg.SectorsPerCluster
	fatSectors := ((nclusters+minCluster)*2 + SectorSize - 1) / SectorSize
	nclusters = (totalSectors - 1 - fatSectors - rootSectors) / cfg.SectorsPerCluster
	if nclusters < 16 {
		return nil, fmt.Errorf("fatfs: layout leaves only %d clusters", nclusters)
	}

	fs := &FS{
		cfg:          cfg,
		base:         base,
		fatBase:      base + mem.Addr(SectorSize),
		clusterBytes: clusterBytes,
		fill:         make([]byte, clusterBytes),
		nclusters:    nclusters,
		freeLow:      minCluster,
	}
	fs.rootBase = fs.fatBase + mem.Addr(fatSectors*SectorSize)
	fs.dataBase = fs.rootBase + mem.Addr(rootSectors*SectorSize)
	// One page per cluster, aligned so each cluster is a whole page.
	fs.vol = newStore(base, cfg.TotalBytes, clusterBytes, fs.dataBase)

	fs.writeBootSector(totalSectors, fatSectors)

	// A fresh store reads as zeros: every FAT cell free and the root
	// directory empty. Only the reserved cells need writing.
	fs.setFAT(NullAccess{}, 0, 0xFFF8) // media descriptor copy
	fs.setFAT(NullAccess{}, 1, fatEndOfFile)
	return fs, nil
}

// writeBootSector emits a minimal but well-formed BPB.
func (fs *FS) writeBootSector(totalSectors, fatSectors int) {
	b := fs.vol.write(fs.base, SectorSize)
	copy(b[0:3], []byte{0xEB, 0x3C, 0x90}) // jump
	copy(b[3:11], []byte("REPROFAT"))      // OEM
	put16 := func(off int, v uint16) { b[off] = byte(v); b[off+1] = byte(v >> 8) }
	put32 := func(off int, v uint32) {
		b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	put16(11, SectorSize)
	b[13] = byte(fs.cfg.SectorsPerCluster)
	put16(14, 1) // reserved sectors
	b[16] = 1    // one FAT
	put16(17, uint16(fs.cfg.RootEntries))
	if totalSectors < 1<<16 {
		put16(19, uint16(totalSectors))
	} else {
		put32(32, uint32(totalSectors))
	}
	b[21] = 0xF8 // media descriptor: fixed disk
	put16(22, uint16(fatSectors))
	b[510], b[511] = 0x55, 0xAA
}

// PagesWritten returns how many distinct cluster-sized page buffers the
// volume's store holds: pages written, plus one per distinct image
// Populate shares between directory clusters. The rest of the volume
// reads as zeros without host memory.
func (fs *FS) PagesWritten() int { return fs.vol.written }

// ClusterBytes returns the cluster size in bytes.
func (fs *FS) ClusterBytes() int { return fs.clusterBytes }

// NumClusters returns the number of data clusters.
func (fs *FS) NumClusters() int { return fs.nclusters }

// clusterAddr returns the address of data cluster n (n >= minCluster).
func (fs *FS) clusterAddr(n int) mem.Addr {
	return fs.dataBase + mem.Addr((n-minCluster)*fs.clusterBytes)
}

// fatAddr returns the address of FAT cell n.
func (fs *FS) fatAddr(n int) mem.Addr { return fs.fatBase + mem.Addr(2*n) }

// readFAT reads FAT cell n, charging acc.
func (fs *FS) readFAT(acc Access, n int) uint16 {
	acc.Load(fs.fatAddr(n), 2)
	acc.Compute(FATDecodeCost)
	return fs.fat(n)
}

// fat reads FAT cell n without charging anyone.
func (fs *FS) fat(n int) uint16 {
	return binary.LittleEndian.Uint16(fs.vol.read(fs.fatAddr(n), 2))
}

// setFAT writes FAT cell n, charging acc.
func (fs *FS) setFAT(acc Access, n int, v uint16) {
	acc.Store(fs.fatAddr(n), 2)
	binary.LittleEndian.PutUint16(fs.vol.write(fs.fatAddr(n), 2), v)
}

// allocChainContiguous allocates count clusters guaranteed contiguous, for
// directories that must form a single span (CoreTime objects). It takes
// the count clusters at freeLow: no cluster is ever freed, so that is the
// first free run, the one a first-fit scan from minCluster would choose.
func (fs *FS) allocChainContiguous(acc Access, count int) (int, error) {
	if count <= 0 {
		return 0, fmt.Errorf("fatfs: contiguous chain of %d clusters", count)
	}
	start := fs.freeLow
	if start+count > fs.nclusters+minCluster {
		return 0, fmt.Errorf("fatfs: no run of %d contiguous free clusters", count)
	}
	for i := 0; i < count-1; i++ {
		fs.setFAT(acc, start+i, uint16(start+i+1))
	}
	fs.setFAT(acc, start+count-1, fatEndOfFile)
	fs.freeLow = start + count
	return start, nil
}

// chain returns the cluster chain starting at n, charging FAT reads.
func (fs *FS) chain(acc Access, n int) ([]int, error) {
	var out []int
	seen := make(map[int]bool)
	for n >= minCluster {
		if seen[n] {
			return nil, fmt.Errorf("fatfs: FAT cycle at cluster %d", n)
		}
		seen[n] = true
		out = append(out, n)
		next := fs.readFAT(acc, n)
		if next >= fatEndOfFile {
			return out, nil
		}
		if next == fatFree || next == fatReserved {
			return nil, fmt.Errorf("fatfs: chain hits free/reserved cell after cluster %d", n)
		}
		n = int(next)
	}
	return out, nil
}

// EncodeName converts "NAME.EXT" to the on-disk 11-byte 8.3 form.
func EncodeName(name string) ([11]byte, error) {
	var out [11]byte
	for i := range out {
		out[i] = ' '
	}
	name = strings.ToUpper(name)
	base, ext := name, ""
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		base, ext = name[:i], name[i+1:]
	}
	if base == "" || len(base) > 8 || len(ext) > 3 {
		return out, fmt.Errorf("fatfs: %q does not fit 8.3", name)
	}
	for _, part := range []struct {
		s   string
		off int
	}{{base, 0}, {ext, 8}} {
		for i := 0; i < len(part.s); i++ {
			c := part.s[i]
			if c <= ' ' || c == '.' || c == '/' || c == '\\' || c >= 0x7F {
				return out, fmt.Errorf("fatfs: invalid character %q in name %q", c, name)
			}
			out[part.off+i] = c
		}
	}
	return out, nil
}

// DecodeName converts the on-disk form back to "NAME.EXT".
func DecodeName(raw [11]byte) string {
	base := strings.TrimRight(string(raw[:8]), " ")
	ext := strings.TrimRight(string(raw[8:]), " ")
	if ext == "" {
		return base
	}
	return base + "." + ext
}
