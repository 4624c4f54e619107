// Hot-path benchmarks for the simulator itself (as opposed to the
// paper-figure benchmarks in bench_test.go): BenchmarkFig4Cell times one
// grid cell of the Figure-4 sweep end to end, the unit of work the sweep
// engine parallelizes. Before/after numbers for the memory-data-path
// refactor are recorded in BENCH_hotpath.json.
package repro_test

import (
	"testing"

	"repro/o2"
)

// BenchmarkFig4Cell measures a single Figure-4 sweep cell on the tiny8
// machine: build the directory tree, run baseline and CoreTime
// measurements, exactly as one worker of the sweep engine would.
func BenchmarkFig4Cell(b *testing.B) {
	exp := o2.Experiment{
		Machine: o2.Tiny8,
		Tree:    o2.DirSpec{Dirs: 8, EntriesPerDir: 512},
	}
	p := o2.DefaultRunParams()
	p.Threads = 8
	p.Warmup = 400_000
	p.Measure = 800_000
	p.Seed = 7
	exp.Params = p
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(o2.WithScheduler(o2.CoreTime))
		if err != nil {
			b.Fatal(err)
		}
		sink += res.KResPerSec
	}
	if sink == 0 {
		b.Fatal("benchmark produced no resolutions")
	}
}

// BenchmarkDirTreeBuild measures the set-up every Figure-4 sweep cell pays
// before its first simulated cycle: an AMD16 runtime plus a formatted and
// populated tree of 224 directories of 1,000 entries (7 MB of directory
// data, the middle of the Fig. 4 x-axis). ns/dir is host time per built
// directory.
func BenchmarkDirTreeBuild(b *testing.B) {
	spec := o2.DirSpec{Dirs: 224, EntriesPerDir: 1000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt, err := o2.New(o2.WithTopology(o2.AMD16), o2.WithScheduler(o2.CoreTime))
		if err != nil {
			b.Fatal(err)
		}
		tree, err := rt.NewDirTree(spec)
		if err != nil {
			b.Fatal(err)
		}
		if tree.Len() != spec.Dirs {
			b.Fatalf("built %d directories, want %d", tree.Len(), spec.Dirs)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spec.Dirs), "ns/dir")
}
