package workload

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/fatfs"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file implements the hierarchical path-resolution workload:
// /TOPxx/SUByy/Fzzzzzzz lookups that scan two directories per operation.
// One resolution is a *nested* pair of CoreTime operations — the inner
// (subdirectory scan) runs inside the outer (top-directory scan) — which
// is exactly the "one operation uses two objects simultaneously" pattern
// that §6.2's object clustering targets: clustering a top directory with
// its subdirectories keeps a whole resolution on one core.

// PathSpec sizes the two-level directory tree.
type PathSpec struct {
	TopDirs     int // directories under the root
	SubsPerTop  int // subdirectories per top directory
	FilesPerSub int
}

// TotalBytes returns the tree's directory-data footprint.
func (s PathSpec) TotalBytes() int {
	top := s.TopDirs * s.SubsPerTop * fatfs.DirEntrySize
	sub := s.TopDirs * s.SubsPerTop * s.FilesPerSub * fatfs.DirEntrySize
	return top + sub
}

// VolumeBytes returns the FAT volume size that holds the tree.
func (s PathSpec) VolumeBytes() int { return s.TotalBytes()*2 + (8 << 20) }

// ImageBytes returns the machine memory image size the environment needs.
func (s PathSpec) ImageBytes() int { return s.VolumeBytes() + (4 << 20) }

// PathNode bundles one directory of the tree.
type PathNode struct {
	Dir  fatfs.Dir
	Obj  *mem.Object
	Lock *exec.SpinLock
}

// PathEnv is a built two-level tree environment.
type PathEnv struct {
	Eng  *sim.Engine
	Mach *machine.Machine
	Sys  *exec.System
	FS   *fatfs.FS
	Spec PathSpec

	Tops []*PathNode
	// Subs[t][s] is subdirectory s of top directory t.
	Subs [][]*PathNode
	// FileNames[s] are the file names present in every subdirectory.
	FileNames []string
	// SubNames[s] are the subdirectory names under every top.
	SubNames []string
}

// BuildPathEnv constructs the tree: TopDirs directories under the root,
// each holding SubsPerTop subdirectories of FilesPerSub zero-length files.
// Every directory gets its own spin lock and registered object.
func BuildPathEnv(cfg topology.Config, execOpts exec.Options, spec PathSpec) (*PathEnv, error) {
	if spec.TopDirs <= 0 || spec.SubsPerTop <= 0 || spec.FilesPerSub <= 0 {
		return nil, fmt.Errorf("workload: invalid path spec %+v", spec)
	}
	eng := sim.NewEngine()
	m, err := machine.New(cfg, spec.ImageBytes())
	if err != nil {
		return nil, err
	}
	return BuildPathEnvOn(exec.NewSystem(eng, m, execOpts), spec)
}

// BuildPathEnvOn builds the two-level tree on an existing substrate,
// formatting the FAT volume inside the machine's memory image (see
// BuildEnvOn).
func BuildPathEnvOn(sys *exec.System, spec PathSpec) (*PathEnv, error) {
	if spec.TopDirs <= 0 || spec.SubsPerTop <= 0 || spec.FilesPerSub <= 0 {
		return nil, fmt.Errorf("workload: invalid path spec %+v", spec)
	}
	eng, m := sys.Engine(), sys.Machine()
	fs, err := fatfs.Format(m.Image(), fatfs.Config{
		TotalBytes:        spec.VolumeBytes(),
		SectorsPerCluster: 8,
		RootEntries:       rootEntriesFor(spec.TopDirs),
	})
	if err != nil {
		return nil, err
	}

	env := &PathEnv{Eng: eng, Mach: m, Sys: sys, FS: fs, Spec: spec}
	for s := 0; s < spec.SubsPerTop; s++ {
		env.SubNames = append(env.SubNames, fmt.Sprintf("SUB%04d", s))
	}
	names, raws, err := nameTable(spec.FilesPerSub)
	if err != nil {
		return nil, err
	}
	env.FileNames = names

	null := fatfs.NullAccess{}
	for ti := 0; ti < spec.TopDirs; ti++ {
		topName := fmt.Sprintf("TOP%04d", ti)
		topDir, err := fs.Mkdir(null, fs.Root(), topName, spec.SubsPerTop)
		if err != nil {
			return nil, err
		}
		topNode, err := env.node(topDir, topName)
		if err != nil {
			return nil, err
		}
		env.Tops = append(env.Tops, topNode)

		var subs []*PathNode
		for si := 0; si < spec.SubsPerTop; si++ {
			subDir, err := fs.Mkdir(null, topDir, env.SubNames[si], spec.FilesPerSub)
			if err != nil {
				return nil, err
			}
			if err := fs.Populate(subDir, raws); err != nil {
				return nil, err
			}
			node, err := env.node(subDir, fmt.Sprintf("%s/%s", topName, env.SubNames[si]))
			if err != nil {
				return nil, err
			}
			subs = append(subs, node)
		}
		env.Subs = append(env.Subs, subs)
	}
	return env, nil
}

func (env *PathEnv) node(d fatfs.Dir, name string) (*PathNode, error) {
	span, err := env.FS.Extent(d)
	if err != nil {
		return nil, err
	}
	obj, err := env.Mach.Image().RegisterObject(name, span)
	if err != nil {
		return nil, err
	}
	return &PathNode{Dir: d, Obj: obj, Lock: env.Sys.NewSpinLock(name)}, nil
}

// ClusterHints returns, per top directory, the object addresses of the
// top and all its subdirectories — ready to feed to
// core.Runtime.PlaceTogether.
func (env *PathEnv) ClusterHints() [][]mem.Addr {
	out := make([][]mem.Addr, len(env.Tops))
	for ti, top := range env.Tops {
		addrs := []mem.Addr{top.Obj.Base}
		for _, sub := range env.Subs[ti] {
			addrs = append(addrs, sub.Obj.Base)
		}
		out[ti] = addrs
	}
	return out
}

// PathResult is one measured path-lookup run.
type PathResult struct {
	Resolutions uint64
	KResPerSec  float64
	Migrations  uint64
	Scheduler   string
}

// RunPathLookup measures full-path resolutions (top scan + sub scan) per
// second. Each resolution brackets the top-directory scan in an outer
// operation and the subdirectory scan in a nested inner operation.
func RunPathLookup(env *PathEnv, ann sched.Annotator, p RunParams) PathResult {
	env.Mach.FlushAll()
	env.Mach.Counters().Reset()

	ncores := env.Mach.Config().NumCores()
	homes := sched.RoundRobin(p.Threads, ncores)
	measureStart := env.Eng.Now() + p.Warmup
	deadline := measureStart + p.Measure

	counts := make([]uint64, p.Threads)
	var migBase uint64
	master := masterRNG(env.Eng, p)

	for i := 0; i < p.Threads; i++ {
		i := i
		rng := master.Split()
		env.Sys.Go(fmt.Sprintf("thread %d", i), homes[i], func(t *exec.Thread) {
			b := t.Batch() // reused across lookups: empty between Commits
			for t.Now() < deadline {
				ti := rng.Intn(len(env.Tops))
				si := rng.Intn(len(env.Subs[ti]))
				top, sub := env.Tops[ti], env.Subs[ti][si]
				file := env.FileNames[rng.Intn(len(env.FileNames))]

				t.Compute(sim.Cycles(p.PerOpCompute))

				// Outer operation: resolve SUBxxxx within the top
				// directory.
				sched.OpStartRO(ann, t, top.Obj.Base)
				t.Lock(top.Lock)
				subEntry, err := env.FS.Lookup(b, top.Dir, env.SubNames[si])
				if err != nil {
					panic(fmt.Sprintf("workload: top lookup: %v", err))
				}
				b.Commit()
				t.Unlock(top.Lock)

				// Inner (nested) operation: resolve the file within
				// the subdirectory found by the outer scan.
				subDir, err := subEntry.Dir(env.FS)
				if err != nil {
					panic(err)
				}
				sched.OpStartRO(ann, t, sub.Obj.Base)
				t.Lock(sub.Lock)
				if _, err := env.FS.Lookup(b, subDir, file); err != nil {
					panic(fmt.Sprintf("workload: sub lookup: %v", err))
				}
				b.Commit()
				t.Unlock(sub.Lock)
				ann.OpEnd(t) // inner

				ann.OpEnd(t) // outer

				if t.Now() >= measureStart && t.Now() <= deadline {
					counts[i]++
				}
				t.Yield()
			}
		})
	}

	env.Eng.At(measureStart, func() {
		var migs uint64
		for c := 0; c < ncores; c++ {
			migs += env.Mach.Counters().Snapshot(c).MigrationsIn
		}
		migBase = migs
	})
	env.Eng.Run(0)

	var total uint64
	for _, c := range counts {
		total += c
	}
	var migs uint64
	for c := 0; c < ncores; c++ {
		migs += env.Mach.Counters().Snapshot(c).MigrationsIn
	}
	seconds := float64(p.Measure) / env.Mach.Config().ClockHz
	return PathResult{
		Resolutions: total,
		KResPerSec:  float64(total) / seconds / 1000,
		Migrations:  migs - migBase,
		Scheduler:   ann.Name(),
	}
}
