package main

import (
	"fmt"

	"repro/o2"
)

// A workload is a fixed list of cells. One pass builds and drives every
// cell once, in order, each on a fresh runtime.
type workload struct {
	name  string
	cells func(smoke bool) []cell
}

// A cell is one build and one drive through the façade.
type cell struct {
	name string
	// build constructs the runtime and the scenario under the cell's seed
	// and returns the drive that runs it once.
	build func(seed uint64) (*o2.Runtime, func() (outcome, error), error)
}

// outcome is what one drive produced.
type outcome struct {
	// result is the façade's whole result value; the digest covers every
	// field of it.
	result any
	// accounting reports a broken invariant of the result, or nil.
	accounting error
	// sim holds the simulated outputs the report prints.
	sim map[string]float64
}

// schedulers are the two policies every workload point runs under.
var schedulers = []o2.Scheduler{o2.Baseline, o2.CoreTime}

var workloads = []workload{
	{name: "fig4-amd16", cells: fig4Cells},
	{name: "soak-amd16", cells: soakCells},
	{name: "web-compaction-amd16", cells: webCompactionCells},
	{name: "kv-numa256", cells: kvCells},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fig4Cells is the paper's Figure 4 on its AMD16 machine: 16 closed-loop
// lookup threads over 1000-entry directories, with the working set swept
// from L2-resident to past the 16 MB aggregate cache under uniform
// popularity, plus two oscillating points that make CoreTime rebalance.
func fig4Cells(smoke bool) []cell {
	uniform, oscillating := []int{16, 64, 224, 480, 672}, []int{224, 480}
	params := o2.DefaultRunParams()
	if smoke {
		uniform, oscillating = []int{16}, []int{64}
		params.Warmup, params.Measure = 600_000, 300_000
	}
	var cells []cell
	for _, dirs := range uniform {
		for _, s := range schedulers {
			cells = append(cells, fig4Cell(dirs, false, s, params))
		}
	}
	for _, dirs := range oscillating {
		for _, s := range schedulers {
			cells = append(cells, fig4Cell(dirs, true, s, params))
		}
	}
	return cells
}

func fig4Cell(dirs int, oscillate bool, s o2.Scheduler, params o2.RunParams) cell {
	pop := "uniform"
	var ctOpts []o2.Option
	params.Popularity = o2.Uniform
	if oscillate {
		// Fig4bSweep's settings: the monitor cadence follows the period.
		pop = "oscillating"
		params.Popularity = o2.Oscillating
		params.OscillatePeriod = 2_000_000
		params.OscillateDivisor = 16
		ctOpts = []o2.Option{o2.WithRebalanceInterval(500_000), o2.WithDecayWindow(4_000_000)}
	}
	return cell{
		name: fmt.Sprintf("%s/%d/%s", pop, dirs, s),
		build: func(seed uint64) (*o2.Runtime, func() (outcome, error), error) {
			opts := []o2.Option{o2.WithTopology(o2.AMD16), o2.WithScheduler(s), o2.WithSeed(seed)}
			if s == o2.CoreTime {
				opts = append(opts, ctOpts...)
			}
			rt, err := o2.New(opts...)
			if err != nil {
				return nil, nil, err
			}
			tree, err := rt.NewDirTree(o2.DirSpec{Dirs: dirs, EntriesPerDir: 1000})
			if err != nil {
				return nil, nil, err
			}
			p := params
			p.Seed = seed
			return rt, func() (outcome, error) {
				r := tree.Run(p)
				return outcome{
					result:     r,
					accounting: checkDirLookup(r),
					sim:        map[string]float64{"kres_per_sec": r.KResPerSec},
				}, nil
			}, nil
		},
	}
}

// soakCells is the million-request soak at half length: open-loop Poisson
// arrivals at 600k req/s into 16 parked workers (the direct-handoff
// drive) over a small, cache-resident namespace, so engine dispatch and
// goroutine hand-off dominate the host cost.
func soakCells(smoke bool) []cell {
	load := o2.ServiceLoad{Workers: 16, Requests: 500_000, RPS: 600_000, Skew: 0.99, DirectHandoff: true}
	if smoke {
		load.Requests = 5_000
	}
	return webCells(o2.WebSpec{DocRoots: 64, FilesPerRoot: 256}, load)
}

// webCompactionCells is the §2 web server with background writes:
// open-loop Poisson arrivals at 400k req/s into 16 polling workers over
// 224 vhosts of 1000 files, with one compactor rewriting hot directories
// half of its time.
func webCompactionCells(smoke bool) []cell {
	spec := o2.WebSpec{DocRoots: 224, FilesPerRoot: 1000}
	load := o2.ServiceLoad{Workers: 16, Requests: 45_000, RPS: 400_000, Skew: 0.99, CompactionShare: 0.5}
	if smoke {
		spec = o2.WebSpec{DocRoots: 24, FilesPerRoot: 128}
		load.Requests = 2_000
	}
	return webCells(spec, load)
}

func webCells(spec o2.WebSpec, load o2.ServiceLoad) []cell {
	var cells []cell
	for _, s := range schedulers {
		cells = append(cells, cell{
			name: s.String(),
			build: func(seed uint64) (*o2.Runtime, func() (outcome, error), error) {
				rt, err := o2.New(o2.WithTopology(o2.AMD16), o2.WithScheduler(s), o2.WithSeed(seed))
				if err != nil {
					return nil, nil, err
				}
				svc, err := rt.NewWebService(spec)
				if err != nil {
					return nil, nil, err
				}
				l := load
				l.Seed = seed
				return rt, func() (outcome, error) {
					r, err := svc.Run(l)
					if err != nil {
						return outcome{}, err
					}
					return outcome{
						result:     r,
						accounting: checkService(r, l),
						sim: map[string]float64{
							"achieved_krps": r.AchievedKRPS,
							"dropped":       float64(r.Dropped),
							"p50_cycles":    r.P50,
							"p99_cycles":    r.P99,
							"p999_cycles":   r.P999,
						},
					}, nil
				}, nil
			},
		})
	}
	return cells
}

// kvCells is the sharded store on the 256-core NUMA machine: 512
// closed-loop clients over a 64 MB store of 1024 shards, a mix of 55%
// gets, 40% full-shard scans and 5% puts under Zipf 0.99 keys — the only
// workload that loads the saturating DRAM and link meters and the
// multi-word coherence directory.
func kvCells(smoke bool) []cell {
	spec := o2.KVSpec{Shards: 1024, SlotsPerShard: 1024, SlotBytes: 64}
	load := o2.KVLoad{Clients: 512, OpsPerClient: 32, Mix: o2.KVMix{Gets: 55, Scans: 40, Puts: 5}, Skew: 0.99}
	if smoke {
		spec = o2.KVSpec{Shards: 256, SlotsPerShard: 64, SlotBytes: 64}
		load.OpsPerClient = 2
	}
	var cells []cell
	for _, s := range schedulers {
		cells = append(cells, cell{
			name: s.String(),
			build: func(seed uint64) (*o2.Runtime, func() (outcome, error), error) {
				rt, err := o2.New(o2.WithTopology(o2.NUMA256), o2.WithScheduler(s), o2.WithSeed(seed))
				if err != nil {
					return nil, nil, err
				}
				svc, err := rt.NewKVService(spec)
				if err != nil {
					return nil, nil, err
				}
				l := load
				l.Seed = seed
				return rt, func() (outcome, error) {
					r, err := svc.Run(l)
					if err != nil {
						return outcome{}, err
					}
					return outcome{
						result:     r,
						accounting: checkKV(r, l),
						sim:        map[string]float64{"kops_per_sec": r.KOpsPerSec},
					}, nil
				}, nil
			},
		})
	}
	return cells
}
