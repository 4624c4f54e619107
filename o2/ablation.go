package o2

import (
	"fmt"
	"io"
)

// AblationRow is one configuration of an ablation experiment.
type AblationRow struct {
	Config string
	KOps   float64 // thousands of operations per second
	Note   string
}

// WriteAblation formats ablation rows.
func WriteAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "%-32s %12s  %s\n", "config", "kops/sec", "notes")
	for _, r := range rows {
		fmt.Fprintf(w, "%-32s %12.0f  %s\n", r.Config, r.KOps, r.Note)
	}
}

// Ablation names one ablation experiment for CLIs and test drivers.
type Ablation struct {
	Name  string
	Title string
	Run   func() ([]AblationRow, error)
}

// Ablations returns the full ablation registry in report order.
func Ablations() []Ablation {
	return []Ablation{
		{"clustering", "A1: object clustering (§6.2)", AblationClustering},
		{"replication", "A2: read-only replication (§6.2)", AblationReplication},
		{"replacement", "A3: over-capacity replacement policy (§6.2)", AblationReplacement},
		{"migcost", "A4: migration-cost sensitivity (§6.1)", AblationMigrationCost},
		{"hetero", "A5: heterogeneous cores (§6.1)", AblationHeterogeneous},
		{"paths", "A6: clustering on hierarchical path resolution (§6.2)", AblationPathClustering},
		{"single", "A7: single-threaded application using the whole chip's caches (§1)", AblationSingleThread},
	}
}

// configSweep runs one sweep cell per named configuration — in parallel,
// each on its own fresh runtime — and returns the measured values in
// configuration order. It is the thin bridge every ablation uses to get
// the Sweep engine's worker pool.
func configSweep(name string, labels []string, run func(i int) (float64, error)) ([]float64, error) {
	out := make([]float64, len(labels))
	vals := make([]AxisValue, len(labels))
	for i, l := range labels {
		vals[i] = AxisValue{Label: l}
	}
	_, err := Sweep{
		Name: name,
		Axes: []Axis{{Name: "config", Values: vals}},
		Runner: func(c Cell) (Metrics, error) {
			v, err := run(c.Coords[0])
			if err != nil {
				return nil, err
			}
			out[c.Coords[0]] = v // distinct index per cell, no race
			return Metrics{"kops": v}, nil
		},
	}.Run()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// objBench is a small non-filesystem environment for ablations that need
// raw objects: a runtime with count objects of size bytes each.
type objBench struct {
	rt   *Runtime
	objs []*Object
}

func newObjBench(topo Topology, opts []Option, count, size int) (*objBench, error) {
	all := append([]Option{WithTopology(topo), WithMemory(size*count*2 + (8 << 20))}, opts...)
	rt, err := New(all...)
	if err != nil {
		return nil, err
	}
	e := &objBench{rt: rt}
	for i := 0; i < count; i++ {
		obj, err := rt.NewObject(fmt.Sprintf("obj%03d", i), size)
		if err != nil {
			return nil, err
		}
		e.objs = append(e.objs, obj)
	}
	return e, nil
}

// runObjOps drives threads that repeatedly run `op` and returns operations
// per simulated second (in thousands).
func (e *objBench) runObjOps(threads int, warmup, measure Cycles, seed uint64,
	op func(t *Thread, rng *RNG, measured *uint64)) float64 {
	homes := RoundRobin(threads, e.rt.NumCores())
	measureStart := e.rt.Now() + warmup
	deadline := measureStart + measure
	counts := make([]uint64, threads)
	master := NewRNG(seed)
	for i := 0; i < threads; i++ {
		i := i
		rng := master.Split()
		e.rt.Go(fmt.Sprintf("w%d", i), homes[i], func(t *Thread) {
			for t.Now() < deadline {
				var measured uint64
				op(t, rng, &measured)
				if t.Now() >= measureStart && t.Now() <= deadline {
					counts[i] += measured
				}
				t.Yield()
			}
		})
	}
	e.rt.Run()
	var total uint64
	for _, c := range counts {
		total += c
	}
	seconds := float64(measure) / e.rt.ClockHz()
	return float64(total) / seconds / 1000
}

const (
	ablWarmup  Cycles = 1_500_000
	ablMeasure Cycles = 4_000_000
)

// AblationClustering measures §6.2 object clustering: every operation uses
// a pair of objects together ("if one thread or operation uses two objects
// simultaneously then it might be best to place both objects in the same
// cache"). With clustering the pair shares a core (one migration per
// operation); without, the partner object is usually remote.
func AblationClustering() ([]AblationRow, error) {
	const pairs = 6
	const size = 8 << 10

	run := func(clustering bool) (float64, error) {
		env, err := newObjBench(Tiny8, []Option{WithClustering(clustering)}, 2*pairs, size)
		if err != nil {
			return 0, err
		}
		for i := 0; i < pairs; i++ {
			env.rt.PlaceTogether(env.objs[2*i], env.objs[2*i+1])
		}
		kops := env.runObjOps(8, ablWarmup, ablMeasure, 7, func(t *Thread, rng *RNG, n *uint64) {
			i := rng.Intn(pairs)
			a, b := env.objs[2*i], env.objs[2*i+1]
			// Nested operations: the operation on a uses b inside it,
			// the co-use pattern clustering targets. Without
			// clustering the inner operation migrates to b's core
			// and back every time; with it, b shares a's core and
			// the inner operation is free.
			opA := t.Begin(a)
			t.LoadCompute(a.Addr(0), a.Size(), 0.05)
			opB := t.Begin(b)
			t.LoadCompute(b.Addr(0), b.Size(), 0.05)
			opB.End()
			opA.End()
			*n = 1
		})
		return kops, nil
	}

	kops, err := configSweep("clustering", []string{"off", "on"},
		func(i int) (float64, error) { return run(i == 1) })
	if err != nil {
		return nil, err
	}
	off, on := kops[0], kops[1]
	return []AblationRow{
		{Config: "clustering off", KOps: off, Note: "partner object remote"},
		{Config: "clustering on", KOps: on, Note: fmt.Sprintf("%.2fx", on/off)},
	}, nil
}

// AblationReplication measures §6.2 read-only replication: one hot
// read-only object serializes every operation on a single core unless it
// is replicated per chip.
func AblationReplication() ([]AblationRow, error) {
	const size = 8 << 10

	run := func(replication bool) (float64, error) {
		opts := []Option{
			WithReplication(replication),
			WithReplicationThreshold(32, 0.95),
		}
		env, err := newObjBench(Tiny8, opts, 1, size)
		if err != nil {
			return 0, err
		}
		hot := env.objs[0]
		kops := env.runObjOps(8, ablWarmup, ablMeasure, 11, func(t *Thread, rng *RNG, n *uint64) {
			op := t.BeginRO(hot)
			t.LoadCompute(hot.Addr(0), hot.Size(), 0.1)
			op.End()
			*n = 1
		})
		return kops, nil
	}

	kops, err := configSweep("replication", []string{"off", "on"},
		func(i int) (float64, error) { return run(i == 1) })
	if err != nil {
		return nil, err
	}
	off, on := kops[0], kops[1]
	return []AblationRow{
		{Config: "replication off", KOps: off, Note: "all ops funnel to one core"},
		{Config: "replication on", KOps: on, Note: fmt.Sprintf("one replica per chip, %.2fx", on/off)},
	}, nil
}

// AblationReplacement measures the §6.2 over-capacity policy: the working
// set exceeds total on-chip memory, with a hot subset. First-fit keeps
// whichever objects crossed the miss threshold first; frequency-based
// replacement keeps the hot ones.
func AblationReplacement() ([]AblationRow, error) {
	p := DefaultRunParams()
	p.Threads = 8
	p.Warmup = ablWarmup
	p.Measure = ablMeasure
	// Adversarial schedule: uniform traffic during warmup fills the
	// budget with arbitrary directories; then the distribution shifts to
	// a hot subset. First-fit is stuck with its early picks;
	// frequency-based replacement revises them.
	p.Popularity = UniformThenHotspot
	p.PhaseShiftAt = ablWarmup
	p.HotDirs = 6
	p.HotFraction = 0.9

	exp := Experiment{
		Machine: Tiny8,
		Tree:    DirSpec{Dirs: 32, EntriesPerDir: 512}, // 512 KB on a 256 KB machine
		Params:  p,
		// Decay and the DRAM-ineffectiveness unplacer would eventually
		// free the budget on their own; disable both to isolate the
		// replacement policy.
		Options: []Option{WithDecayWindow(0), WithDRAMUnplaceFraction(0)},
	}

	policies := []Replacement{FirstFit, Frequency}
	kres, err := configSweep("replacement", []string{"first-fit", "frequency"},
		func(i int) (float64, error) {
			res, err := exp.Run(WithReplacement(policies[i]))
			return res.KResPerSec, err
		})
	if err != nil {
		return nil, err
	}
	return []AblationRow{
		{Config: "first-fit (paper base)", KOps: kres[0], Note: "placement is first-come"},
		{Config: "frequency replacement", KOps: kres[1],
			Note: fmt.Sprintf("hot objects win space, %.2fx", kres[1]/kres[0])},
	}, nil
}

// AblationMigrationCost sweeps the fixed CPU cost of migration (§6.1: the
// AMD machine's "high cost to migrate a thread" limits CoreTime; hardware
// active messages "could reduce the overhead of migration").
func AblationMigrationCost() ([]AblationRow, error) {
	costs := []Cycles{0, 250, 550, 1500, 4000, 8000}

	p := DefaultRunParams()
	p.Threads = 8
	p.Warmup = ablWarmup
	p.Measure = ablMeasure

	exp := Experiment{
		Machine: Tiny8,
		Tree:    DirSpec{Dirs: 8, EntriesPerDir: 512},
		Params:  p,
	}

	// One cell for the baseline reference (no migrations at all), then
	// one per migration cost.
	labels := []string{"baseline"}
	for _, c := range costs {
		labels = append(labels, fmt.Sprintf("%d", c))
	}
	kres, err := configSweep("migcost", labels, func(i int) (float64, error) {
		if i == 0 {
			res, err := exp.Run(WithScheduler(Baseline))
			return res.KResPerSec, err
		}
		res, err := exp.Run(WithMigrationCost(costs[i-1]))
		return res.KResPerSec, err
	})
	if err != nil {
		return nil, err
	}
	rows := []AblationRow{{Config: "thread scheduler (reference)", KOps: kres[0]}}
	for i, c := range costs {
		note := ""
		if c == 0 {
			note = "≈ hardware active messages"
		}
		rows = append(rows, AblationRow{
			Config: fmt.Sprintf("coretime, migr CPU cost %d", c),
			KOps:   kres[i+1],
			Note:   note,
		})
	}
	return rows, nil
}

// AblationPathClustering measures clustering on the real file system:
// two-level path resolutions (/TOP/SUB/FILE) are nested operations over a
// top directory and one of its subdirectories. Clustering each top with
// its subdirectories keeps whole resolutions on one core (§6.2: "if one
// thread or operation uses two objects simultaneously then it might be
// best to place both objects in the same cache").
func AblationPathClustering() ([]AblationRow, error) {
	p := DefaultRunParams()
	p.Threads = 8
	p.Warmup = ablWarmup
	p.Measure = ablMeasure

	// Subdirectory scans are small, hence the lower placement threshold
	// on the CoreTime configurations.
	configs := [][]Option{
		{WithScheduler(Baseline)},
		{WithMissThreshold(4), WithClustering(false)},
		{WithMissThreshold(4), WithClustering(true)},
	}
	paths := PathSpec{TopDirs: 4, SubsPerTop: 6, FilesPerSub: 128}
	results := make([]PathResult, len(configs))
	if _, err := (Sweep{
		Name: "paths",
		Base: Cell{Machine: Tiny8},
		Axes: []Axis{{Name: "config", Values: []AxisValue{
			{Label: "baseline"}, {Label: "flat"}, {Label: "clustered"},
		}}},
		Runner: func(c Cell) (Metrics, error) {
			rt, err := New(append([]Option{WithTopology(c.Machine)}, configs[c.Coords[0]]...)...)
			if err != nil {
				return nil, err
			}
			pt, err := rt.NewPathTree(paths)
			if err != nil {
				return nil, err
			}
			pt.ClusterByTop()
			params := p
			params.Seed = c.Seed
			res := pt.Run(params)
			results[c.Coords[0]] = res // distinct index per cell, no race
			return Metrics{"kres_per_sec": res.KResPerSec, "migrations": float64(res.Migrations)}, nil
		},
	}).Run(); err != nil {
		return nil, err
	}
	base, flat, clustered := results[0], results[1], results[2]
	return []AblationRow{
		{Config: "thread scheduler (reference)", KOps: base.KResPerSec},
		{Config: "coretime, clustering off", KOps: flat.KResPerSec,
			Note: fmt.Sprintf("%d migrations", flat.Migrations)},
		{Config: "coretime, clustering on", KOps: clustered.KResPerSec,
			Note: fmt.Sprintf("%d migrations, %.2fx over unclustered",
				clustered.Migrations, clustered.KResPerSec/flat.KResPerSec)},
	}, nil
}

// AblationSingleThread reproduces the §1 claim that even single-threaded
// applications can benefit: "a single threaded application might have a
// working set larger than a single core's cache capacity. The application
// would run faster with more cache, and the processor may well have spare
// cache in other cores, but if the application stays on one core it can
// use only a small fraction of the total cache."
//
// One thread scans objects whose total exceeds a single core's budget but
// fits the machine. The baseline pins the thread (implicitly: it never
// migrates); CoreTime partitions the objects across all caches and walks
// the thread among them.
func AblationSingleThread() ([]AblationRow, error) {
	// 12 × 16 KB = 192 KB: far beyond one Tiny8 core's ~29 KB budget
	// (L2 + L3 share), comfortably inside the machine's 256 KB total.
	const objects = 12
	const size = 16 << 10

	run := func(scheduler Scheduler) (float64, error) {
		env, err := newObjBench(Tiny8, []Option{WithScheduler(scheduler)}, objects, size)
		if err != nil {
			return 0, err
		}
		kops := env.runObjOps(1, ablWarmup, ablMeasure, 21, func(t *Thread, rng *RNG, n *uint64) {
			obj := env.objs[rng.Intn(objects)]
			op := t.Begin(obj)
			t.LoadCompute(obj.Addr(0), obj.Size(), 0.05)
			op.End()
			*n = 1
		})
		return kops, nil
	}
	scheds := []Scheduler{Baseline, CoreTime}
	kops, err := configSweep("single", []string{"pinned", "coretime"},
		func(i int) (float64, error) { return run(scheds[i]) })
	if err != nil {
		return nil, err
	}
	base, ct := kops[0], kops[1]
	return []AblationRow{
		{Config: "single thread, pinned", KOps: base,
			Note: "working set ≫ one core's caches"},
		{Config: "single thread, coretime", KOps: ct,
			Note: fmt.Sprintf("thread walks the placed objects, %.2fx", ct/base)},
	}, nil
}

// AblationHeterogeneous runs the workload on a machine where half the
// cores run at half speed (§6.1: "Future processors might have
// heterogeneous cores, which would complicate the design of a O2
// scheduler").
func AblationHeterogeneous() ([]AblationRow, error) {
	p := DefaultRunParams()
	p.Threads = 8
	p.Warmup = ablWarmup
	p.Measure = ablMeasure

	exp := Experiment{
		// Odd cores run at half speed.
		Machine: Tiny8.WithCoreSpeeds(1, 2, 1, 2, 1, 2, 1, 2),
		Tree:    DirSpec{Dirs: 8, EntriesPerDir: 512},
		Params:  p,
	}
	scheds := []Scheduler{Baseline, CoreTime}
	kres, err := configSweep("hetero", []string{"thread-scheduler", "coretime"},
		func(i int) (float64, error) {
			res, err := exp.Run(WithScheduler(scheds[i]))
			return res.KResPerSec, err
		})
	if err != nil {
		return nil, err
	}

	return []AblationRow{
		{Config: "hetero, thread scheduler", KOps: kres[0]},
		{Config: "hetero, coretime", KOps: kres[1],
			Note: fmt.Sprintf("%.2fx; packer is speed-unaware (open problem per §6.1)",
				kres[1]/kres[0])},
	}, nil
}
