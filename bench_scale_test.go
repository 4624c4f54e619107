// Big-machine benchmarks for the simulator itself: what one scale-sweep
// cell costs at 16 versus 256 cores. The scale round's acceptance gate is
// that the *per-core* simulator cost at 256 cores stays within 2x of the
// 16-core cost — i.e. the multi-word coherence directory, the saturating
// bandwidth meters, and the wide invalidation fan-out add per-node work
// that is at most linear in the machine size. Before/after numbers are
// recorded in BENCH_scale.json.
package repro_test

import (
	"testing"

	"repro/o2"
)

// benchScaleCell times one dirlookup cell of the scale sweep on the given
// machine: workload sized per core (2 directories of 64 entries per core,
// one worker thread per core, the golden scale configuration's shape) and
// run under CoreTime on a fresh runtime, exactly as one worker of
// `o2bench scale` would run it. Dividing the reported ns/op by the core
// count gives the per-core simulator cost the acceptance gate compares.
// It also reports ns/access: host time per simulated load or store, read
// from the runtime's machine.loads and machine.stores gauges (the cell's
// whole cost, runtime and tree build included, over its accesses).
func benchScaleCell(b *testing.B, machine o2.Topology) {
	cores := machine.NumCores()
	p := o2.DefaultRunParams()
	p.Threads = cores
	p.Warmup = 100_000
	p.Measure = 200_000
	p.Seed = 7
	b.ReportAllocs()
	b.ResetTimer()
	var sink, accesses float64
	for i := 0; i < b.N; i++ {
		rt, err := o2.New(o2.WithTopology(machine), o2.WithScheduler(o2.CoreTime))
		if err != nil {
			b.Fatal(err)
		}
		tree, err := rt.NewDirTree(o2.DirSpec{Dirs: 2 * cores, EntriesPerDir: 64})
		if err != nil {
			b.Fatal(err)
		}
		sink += tree.Run(p).KResPerSec
		for _, m := range rt.Metrics() {
			if m.Name == "machine.loads" || m.Name == "machine.stores" {
				accesses += m.Value
			}
		}
	}
	if sink == 0 || accesses == 0 {
		b.Fatal("benchmark produced no resolutions or no accesses")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/accesses, "ns/access")
}

// BenchmarkScaleCell16 is the 16-core reference point (the paper's AMD16
// machine: narrow one-word directory, legacy bandwidth meters).
func BenchmarkScaleCell16(b *testing.B) { benchScaleCell(b, o2.AMD16) }

// BenchmarkScaleCell256 is the 256-core point (NUMA256: 288 directory
// nodes on the five-word sharer bitset, saturating DRAM and interconnect
// meters on every miss).
func BenchmarkScaleCell256(b *testing.B) { benchScaleCell(b, o2.NUMA256) }
