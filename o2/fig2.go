package o2

import (
	"fmt"
	"io"
	"sort"
)

// Fig. 2 of the paper contrasts the cache contents of the directory
// workload under a thread scheduler (every core's cache holds copies of
// the same hot directories, much of the data off-chip) with an O2
// scheduler (directories partitioned across caches, everything on-chip).
// CacheMap reproduces that picture from measured cache residency.

// DirResidency describes where one directory's bytes live.
type DirResidency struct {
	Name        string
	SizeBytes   int
	PerL2Bytes  []int // per core
	PerL3Bytes  []int // per chip
	OnChipBytes int   // distinct bytes resident somewhere on chip
	CopyBytes   int   // total resident bytes, counting duplicates
}

// CacheMap is the measured equivalent of the paper's Figure 2 for one
// scheduler.
type CacheMap struct {
	Scheduler string
	Dirs      []DirResidency

	// DistinctOnChip counts directories with at least half their bytes
	// on chip; Duplication is total copy bytes divided by distinct
	// resident bytes (1.0 = no duplication).
	DistinctOnChip int
	OffChip        int
	Duplication    float64
}

// Fig2Config drives the cache-contents experiment.
type Fig2Config struct {
	Machine       Topology
	Dirs          int
	EntriesPerDir int
	Threads       int
	Warmup        uint64
	Seed          uint64
}

// DefaultFig2Config mirrors the paper's 20-directory illustration on the
// Tiny8 machine, whose cache scale makes duplication visible. 28
// directories of 4 KB are ~112 KB of distinct data against 256 KB of
// on-chip cache: with thread scheduling's ~3× duplication some directories
// must fall off chip (the paper's "off-chip" box), while the O2
// scheduler's partitioned copies all fit.
func DefaultFig2Config() Fig2Config {
	return Fig2Config{
		Machine:       Tiny8,
		Dirs:          28,
		EntriesPerDir: 128, // 4 KB per directory
		Threads:       8,
		Warmup:        3_000_000,
		Seed:          1,
	}
}

// Fig2 runs the directory workload under both schedulers and snapshots
// cache residency after the warmup, returning (thread-scheduler map,
// O2-scheduler map). The two schedulers run as a two-cell sweep, so they
// execute in parallel; both use cfg.Seed, keeping the maps identical to a
// serial run.
func Fig2(cfg Fig2Config) (CacheMap, CacheMap, error) {
	maps := make([]CacheMap, 2)
	_, err := Sweep{
		Name: "fig2",
		Axes: []Axis{schedulerAxis(Baseline, CoreTime)},
		Seed: cfg.Seed,
		Runner: func(c Cell) (Metrics, error) {
			cm, err := fig2One(cfg, c.Scheduler)
			if err != nil {
				return nil, err
			}
			maps[c.Coords[0]] = cm // distinct index per cell, no race
			return Metrics{
				"duplication":  cm.Duplication,
				"on_chip_dirs": float64(cm.DistinctOnChip),
				"off_chip":     float64(cm.OffChip),
			}, nil
		},
	}.Run()
	if err != nil {
		return CacheMap{}, CacheMap{}, err
	}
	return maps[0], maps[1], nil
}

func fig2One(cfg Fig2Config, scheduler Scheduler) (CacheMap, error) {
	rt, err := New(WithTopology(cfg.Machine), WithScheduler(scheduler))
	if err != nil {
		return CacheMap{}, err
	}
	tree, err := rt.NewDirTree(DirSpec{Dirs: cfg.Dirs, EntriesPerDir: cfg.EntriesPerDir})
	if err != nil {
		return CacheMap{}, err
	}
	p := DefaultRunParams()
	p.Threads = cfg.Threads
	p.Warmup = 0
	p.Measure = Cycles(cfg.Warmup)
	p.Seed = cfg.Seed
	res := tree.Run(p)

	// Snapshot residency through the machine model; this is simulator
	// introspection, below the scheduling API.
	cm := CacheMap{Scheduler: res.Scheduler}
	var copyTotal, distinctTotal int
	for _, d := range tree.dirs {
		r := tree.env.Mach.Residency(d.h.Obj)
		dr := DirResidency{
			Name:       d.h.Obj.Name,
			SizeBytes:  int(d.h.Obj.Size),
			PerL2Bytes: r.L2Bytes,
			PerL3Bytes: r.L3Bytes,
		}
		dr.OnChipBytes = dr.SizeBytes - r.DRAMBytes
		for _, b := range r.L2Bytes {
			dr.CopyBytes += b
		}
		for _, b := range r.L3Bytes {
			dr.CopyBytes += b
		}
		if dr.OnChipBytes*2 >= dr.SizeBytes {
			cm.DistinctOnChip++
		} else {
			cm.OffChip++
		}
		copyTotal += dr.CopyBytes
		distinctTotal += dr.OnChipBytes
		cm.Dirs = append(cm.Dirs, dr)
	}
	if distinctTotal > 0 {
		cm.Duplication = float64(copyTotal) / float64(distinctTotal)
	}
	sort.Slice(cm.Dirs, func(i, j int) bool { return cm.Dirs[i].Name < cm.Dirs[j].Name })
	return cm, nil
}

// WriteCacheMap renders a CacheMap in the spirit of the paper's Figure 2:
// one column per core, directories listed where they are resident, and an
// off-chip row.
func WriteCacheMap(w io.Writer, topo Topology, cm CacheMap) {
	fmt.Fprintf(w, "# Cache contents — %s\n", cm.Scheduler)
	for core := 0; core < topo.NumCores(); core++ {
		var names []string
		for _, d := range cm.Dirs {
			if d.PerL2Bytes[core]*4 >= d.SizeBytes { // ≥25% resident
				names = append(names, fmt.Sprintf("%s(%d%%)", trimDir(d.Name), 100*d.PerL2Bytes[core]/d.SizeBytes))
			}
		}
		fmt.Fprintf(w, "core %2d L2 : %s\n", core, joinOr(names, "-"))
	}
	for chip := 0; chip < topo.Chips(); chip++ {
		var names []string
		for _, d := range cm.Dirs {
			if d.PerL3Bytes[chip]*4 >= d.SizeBytes {
				names = append(names, fmt.Sprintf("%s(%d%%)", trimDir(d.Name), 100*d.PerL3Bytes[chip]/d.SizeBytes))
			}
		}
		fmt.Fprintf(w, "chip %2d L3 : %s\n", chip, joinOr(names, "-"))
	}
	var off []string
	for _, d := range cm.Dirs {
		if d.OnChipBytes*2 < d.SizeBytes {
			off = append(off, trimDir(d.Name))
		}
	}
	fmt.Fprintf(w, "off-chip   : %s\n", joinOr(off, "-"))
	fmt.Fprintf(w, "summary    : %d/%d dirs mostly on-chip, duplication %.2f copies/byte\n",
		cm.DistinctOnChip, len(cm.Dirs), cm.Duplication)
}

func trimDir(name string) string {
	// DIR00012 → dir12, for compact rows.
	if len(name) > 3 && name[:3] == "DIR" {
		i := 3
		for i < len(name)-1 && name[i] == '0' {
			i++
		}
		return "dir" + name[i:]
	}
	return name
}

func joinOr(names []string, empty string) string {
	if len(names) == 0 {
		return empty
	}
	out := names[0]
	for _, n := range names[1:] {
		out += " " + n
	}
	return out
}
