package o2

import "fmt"

// ablationColumns report an ablation sweep: throughput (±stddev when the
// sweep carried repeats) and migrations in the measured window. The
// directory and path scenarios count resolutions as their operations.
var ablationColumns = []column{
	{name: "kops_per_sec", head: "kops/sec", width: 12, csv: 1, spread: "kops_stddev", value: throughput},
	{name: "migrations", head: "migrations", width: 11},
}

const (
	ablWarmup  Cycles = 1_500_000
	ablMeasure Cycles = 4_000_000
)

// ablParams are the directory and path ablations' run parameters: eight
// threads over the ablation measurement window.
func ablParams() RunParams {
	p := DefaultRunParams()
	p.Threads = 8
	p.Warmup = ablWarmup
	p.Measure = ablMeasure
	return p
}

// optionValue is an axis value that appends opt to the cell's options.
func optionValue(label string, opt Option) AxisValue {
	return AxisValue{Label: label, Apply: func(c *Cell) { c.Options = append(c.Options, opt) }}
}

// Ablations returns the ablations of the §6 design extensions as presets,
// in report order: each is one sweep over one scenario, named after the
// ablation and titled by its usage line. They are CI-sized already, so
// Build ignores quick. DESIGN.md §4 reads the results.
func Ablations() []Preset {
	threadScheduler := schedulerAxis(Baseline).Values[0] // the reference cell

	// A3's adversarial schedule: uniform traffic during warmup fills the
	// budget with arbitrary directories; then the distribution shifts to
	// a hot subset. First-fit is stuck with its early picks;
	// frequency-based replacement revises them.
	hotspot := ablParams()
	hotspot.Popularity = UniformThenHotspot
	hotspot.PhaseShiftAt = ablWarmup
	hotspot.HotDirs = 6
	hotspot.HotFraction = 0.9

	migCost := Axis{Name: "migration_cost", Values: []AxisValue{threadScheduler}}
	for _, c := range []Cycles{0, 250, 550, 1500, 4000, 8000} {
		migCost.Values = append(migCost.Values, optionValue(fmt.Sprint(c), withMigrationCost(c)))
	}

	return []Preset{
		ablation("clustering", "A1: object clustering (§6.2)", Sweep{
			// Every operation uses a pair of objects, one nested in the
			// other: the co-use pattern clustering targets.
			Base: Cell{Machine: Tiny8, Scenario: objectScenario{objects: 12, size: 8 << 10, threads: 8, group: 2, perByte: 0.05}},
			Axes: []Axis{{Name: "clustering", Values: []AxisValue{
				optionValue("off", withClustering(false)), optionValue("on", withClustering(true)),
			}}},
		}),
		ablation("replication", "A2: read-only replication (§6.2)", Sweep{
			// One hot read-only object serializes every operation on one
			// core unless it is replicated per chip.
			Base: Cell{Machine: Tiny8, Options: []Option{withReplicationThreshold(32, 0.95)},
				Scenario: objectScenario{objects: 1, size: 8 << 10, threads: 8, group: 1, readOnly: true, perByte: 0.1}},
			Axes: []Axis{{Name: "replication", Values: []AxisValue{
				optionValue("off", withReplication(false)), optionValue("on", withReplication(true)),
			}}},
		}),
		ablation("replacement", "A3: over-capacity replacement policy (§6.2)", Sweep{
			// 512 KB of directories on a 256 KB machine. The
			// DRAM-ineffectiveness unplacer would eventually free the
			// budget on its own; it is off to isolate replacement.
			Base: Cell{Machine: Tiny8, Options: []Option{withDRAMUnplaceFraction(0)},
				Scenario: DirLookupScenario{Tree: DirSpec{Dirs: 32, EntriesPerDir: 512}, Params: hotspot}},
			Axes: []Axis{{Name: "replacement", Values: []AxisValue{
				optionValue("first-fit", withReplacement(firstFit)), optionValue("frequency", withReplacement(frequency)),
			}}},
		}),
		ablation("migcost", "A4: migration-cost sensitivity (§6.1)", Sweep{
			Base: Cell{Machine: Tiny8, Scenario: DirLookupScenario{Tree: DirSpec{Dirs: 8, EntriesPerDir: 512}, Params: ablParams()}},
			Axes: []Axis{migCost},
		}),
		ablation("hetero", "A5: heterogeneous cores (§6.1)", Sweep{
			// Odd cores run at half speed.
			Base: Cell{Machine: Tiny8.WithCoreSpeeds(1, 2, 1, 2, 1, 2, 1, 2),
				Scenario: DirLookupScenario{Tree: DirSpec{Dirs: 8, EntriesPerDir: 512}, Params: ablParams()}},
			Axes: []Axis{schedulerAxis(Baseline, CoreTime)},
		}),
		ablation("paths", "A6: clustering on hierarchical path resolution (§6.2)", Sweep{
			Base: Cell{Machine: Tiny8, Scenario: pathScenario{}},
			Axes: []Axis{{Name: "clustering", Values: []AxisValue{
				threadScheduler, optionValue("off", withClustering(false)), optionValue("on", withClustering(true)),
			}}},
		}),
		ablation("single", "A7: single-threaded application using the whole chip's caches (§1)", Sweep{
			// 12 × 16 KB = 192 KB: far beyond one Tiny8 core's ~29 KB
			// budget (L2 + L3 share), inside the machine's 256 KB total.
			Base: Cell{Machine: Tiny8, Scenario: objectScenario{objects: 12, size: 16 << 10, threads: 1, group: 1, perByte: 0.05}},
			Axes: []Axis{schedulerAxis(Baseline, CoreTime)},
		}),
	}
}

// ablation is the preset of one ablation: sw under name, reported through
// ablationColumns under title whether or not quick is set.
func ablation(name, title string, sw Sweep) Preset {
	sw.Name = name
	return Preset{Name: name, Usage: title, build: func(bool) (string, Sweep) { return title, sw },
		render: columns(ablationColumns)}
}

// objectScenario is the raw-object workload of the clustering,
// replication and single-thread ablations: objects of size bytes each
// and threads threads that repeatedly pick a group of group consecutive
// objects uniformly and scan each with LoadCompute at perByte cycles a
// byte, inside one operation per object, nested in group order (read-only
// operations when readOnly). Groups of more than one object carry a
// PlaceTogether hint. It reports kops_per_sec and migrations.
type objectScenario struct {
	objects, size, threads, group int
	readOnly                      bool
	perByte                       float64
}

// objectSet is an objectScenario's built state.
type objectSet struct {
	rt   *Runtime
	objs []*Object
}

func (s objectScenario) measure(c Cell) (Metrics, error) {
	set, err := scenarioForCell(c, func(rt *Runtime) (*objectSet, error) {
		set := &objectSet{rt: rt}
		for i := 0; i < s.objects; i++ {
			obj, err := rt.NewObject(fmt.Sprintf("obj%03d", i), s.size)
			if err != nil {
				return nil, err
			}
			set.objs = append(set.objs, obj)
		}
		return set, nil
	})
	if err != nil {
		return nil, err
	}
	rt, objs := set.rt, set.objs
	// An arena reset forgets cluster hints, so every repeat gives them.
	if s.group > 1 {
		for i := 0; i < len(objs); i += s.group {
			rt.PlaceTogether(objs[i : i+s.group]...)
		}
	}

	homes := RoundRobin(s.threads, rt.NumCores())
	measureStart := rt.Now() + ablWarmup
	deadline := measureStart + ablMeasure
	counts := make([]uint64, s.threads)
	var migBase uint64
	master := NewRNG(c.Seed)
	for i := 0; i < s.threads; i++ {
		rng := master.Split()
		rt.Go(fmt.Sprintf("w%d", i), homes[i], func(t *Thread) {
			for t.Now() < deadline {
				g := rng.Intn(len(objs)/s.group) * s.group
				s.visit(t, objs[g:g+s.group])
				if t.Now() >= measureStart && t.Now() <= deadline {
					counts[i]++
				}
				t.Yield()
			}
		})
	}
	rt.At(measureStart, func() { migBase = rt.migrationsIn() })
	rt.Run()
	var total uint64
	for _, n := range counts {
		total += n
	}
	return Metrics{
		"kops_per_sec": float64(total) / (float64(ablMeasure) / rt.ClockHz()) / 1000,
		"migrations":   float64(rt.migrationsIn() - migBase),
	}, nil
}

// visit runs one operation on group[0], with the operations on the rest
// of the group nested inside it.
func (s objectScenario) visit(t *Thread, group []*Object) {
	if len(group) == 0 {
		return
	}
	obj := group[0]
	op := t.begin(obj, s.readOnly)
	t.LoadCompute(obj.Addr(0), obj.Size(), s.perByte)
	s.visit(t, group[1:])
	op.End()
}

// migrationsIn is the machine-wide count of thread migrations so far.
func (rt *Runtime) migrationsIn() uint64 {
	var n uint64
	for c := 0; c < rt.NumCores(); c++ {
		n += rt.mach.Counters().Snapshot(c).MigrationsIn
	}
	return n
}

// pathScenario is the two-level path-resolution workload of the path
// clustering ablation: a PathTree of 4 top directories × 6
// subdirectories × 128 files under ablParams, each top directory hinted
// to share a core with its subdirectories.
type pathScenario struct{}

func (pathScenario) measure(c Cell) (Metrics, error) {
	params := ablParams()
	params.Seed = c.Seed
	pt, err := scenarioForCell(c, func(rt *Runtime) (*PathTree, error) {
		return rt.NewPathTree(PathSpec{TopDirs: 4, SubsPerTop: 6, FilesPerSub: 128})
	})
	if err != nil {
		return nil, err
	}
	// An arena reset forgets cluster hints, so every repeat gives them.
	pt.ClusterByTop()
	res := pt.Run(params)
	return Metrics{
		"kres_per_sec": res.KResPerSec,
		"resolutions":  float64(res.Resolutions),
		"migrations":   float64(res.Migrations),
	}, nil
}
