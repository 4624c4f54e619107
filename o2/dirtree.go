package o2

import (
	"fmt"

	"repro/internal/workload"
)

// DirTree is the paper's directory-lookup workload built on a Runtime: a
// FAT volume holding Spec.Dirs directories of Spec.EntriesPerDir files,
// each directory a schedulable object guarded by its own spin lock.
type DirTree struct {
	rt   *Runtime
	env  *workload.Env
	dirs []*Dir
}

// NewDirTree formats a FAT volume inside the runtime's memory image and
// builds the directory tree. It must run before any thread starts.
func (rt *Runtime) NewDirTree(spec DirSpec) (*DirTree, error) {
	if err := rt.ensure(spec.ImageBytes()); err != nil {
		return nil, err
	}
	env, err := workload.BuildEnvOn(rt.sys, spec)
	if err != nil {
		return nil, err
	}
	tree := &DirTree{rt: rt, env: env}
	for _, h := range env.Dirs {
		tree.dirs = append(tree.dirs, &Dir{tree: tree, h: h, lock: Lock{l: h.Lock}})
	}
	return tree, nil
}

// Len returns the number of directories.
func (tree *DirTree) Len() int { return len(tree.dirs) }

// Dir returns directory i.
func (tree *DirTree) Dir(i int) *Dir { return tree.dirs[i] }

// Spec returns the tree's dimensions.
func (tree *DirTree) Spec() DirSpec { return tree.env.Spec }

// Run measures the built-in directory-lookup driver (the paper's Figure 1
// loop) under the runtime's scheduler: p.Threads threads each repeatedly
// pick a directory by p.Popularity and resolve a random name in it. Caches
// and counters are flushed first, so one tree can be measured repeatedly.
func (tree *DirTree) Run(p RunParams) Result {
	return workload.RunDirLookup(tree.env, tree.rt.ann, p)
}

// Dir is one directory of a DirTree.
type Dir struct {
	tree *DirTree
	h    *workload.DirHandle
	lock Lock
}

// Object returns the directory's schedulable object, for Begin/End,
// Placement, and clustering hints.
func (d *Dir) Object() *Object { return &Object{obj: d.h.Obj} }

// NumEntries returns how many file entries the directory holds.
func (d *Dir) NumEntries() int { return len(d.h.Names) }

// EntryName returns the i-th file name in the directory.
func (d *Dir) EntryName(i int) string { return d.h.Names[i] }

// Lookup resolves name in the directory by linear scan — the paper's
// operation — charging the scan's memory and compute costs to t. The
// caller brackets it with Begin/End:
//
//	op := t.Begin(d.Object())
//	d.Lookup(t, name)
//	op.End()
//
// Looking up a name the directory does not contain panics: the built-in
// drivers only resolve names they created.
func (d *Dir) Lookup(t *Thread, name string) {
	t.Lock(&d.lock)
	b := t.t.Batch() // per-thread reusable batch; empty between Commits
	if _, err := d.tree.env.FS.Lookup(b, d.h.Dir, name); err != nil {
		panic(fmt.Sprintf("o2: lookup %s in %s: %v", name, d.h.Obj.Name, err))
	}
	b.Commit()
	t.Unlock(&d.lock)
}

// PathTree is the hierarchical path-resolution workload built on a
// Runtime: TopDirs directories each holding SubsPerTop subdirectories of
// FilesPerSub files. One resolution scans a top directory and then a
// subdirectory — a nested operation pair, the co-use pattern the
// clustering extension targets.
type PathTree struct {
	rt  *Runtime
	env *workload.PathEnv
}

// NewPathTree formats a FAT volume inside the runtime's memory image and
// builds the two-level tree. It must run before any thread starts.
func (rt *Runtime) NewPathTree(spec PathSpec) (*PathTree, error) {
	if err := rt.ensure(spec.ImageBytes()); err != nil {
		return nil, err
	}
	env, err := workload.BuildPathEnvOn(rt.sys, spec)
	if err != nil {
		return nil, err
	}
	return &PathTree{rt: rt, env: env}, nil
}

// clusterByTop hints the scheduler to pack each top directory together
// with all its subdirectories. Like placeTogether, it takes effect only
// where the clustering extension is on.
func (pt *PathTree) clusterByTop() {
	if pt.rt.ct == nil {
		return
	}
	for _, hint := range pt.env.ClusterHints() {
		pt.rt.ct.PlaceTogether(hint...)
	}
}

// Run measures full-path resolutions per second under the runtime's
// scheduler: each resolution is an outer operation on the top directory
// with a nested operation on the subdirectory.
func (pt *PathTree) Run(p RunParams) PathResult {
	return workload.RunPathLookup(pt.env, pt.rt.ann, p)
}
