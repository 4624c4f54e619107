package workload

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/fatfs"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// rangeAccess charges a lookup's bytes to one core of a machine the way
// exec.Batch does: each Load or Store drives AccessRange at the issue
// time plus the latency accumulated so far, and commit advances the
// clock by the memory latency and the compute. It also counts the slots
// the lookup compared.
type rangeAccess struct {
	m       *machine.Machine
	at      sim.Time
	lat     sim.Cycles
	compute float64
}

func (r *rangeAccess) Load(a mem.Addr, n int) { r.lat += r.m.AccessRange(0, a, n, false, r.at+r.lat) }

func (r *rangeAccess) Store(a mem.Addr, n int) { r.lat += r.m.AccessRange(0, a, n, true, r.at+r.lat) }

func (r *rangeAccess) Compute(c float64) { r.compute += c }

// commit advances the clock past the accumulated cost and returns how
// many slots the lookup compared.
func (r *rangeAccess) commit() int {
	slots := int(r.compute / fatfs.CompareCost)
	r.at += r.lat + sim.Cycles(r.compute)
	r.lat, r.compute = 0, 0
	return slots
}

// BenchmarkDirScan is the directory-scan rung between AccessRange and a
// whole sweep cell: one fatfs.Lookup by core 0 of AMD16 in a 1,000-entry
// directory built by BuildEnvOn, charged through AccessRange as a cost
// batch charges it. The name is the first, middle or last entry, or
// absent, which scans to the end-of-directory slot. The directory fits
// the L1, so after priming every sector hits it. It reports host ns per
// compared slot and must report 0 allocs/op.
func BenchmarkDirScan(b *testing.B) {
	const entries = 1000
	for _, tc := range []struct {
		name, file string
	}{
		{"first", fileName(0)},
		{"middle", fileName(entries / 2)},
		{"last", fileName(entries - 1)},
		{"absent", fileName(entries)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			spec := DirSpec{Dirs: 1, EntriesPerDir: entries}
			m, err := machine.New(topology.AMD16(), spec.ImageBytes())
			if err != nil {
				b.Fatal(err)
			}
			env, err := BuildEnvOn(exec.NewSystem(sim.NewEngine(), m, exec.DefaultOptions()), spec)
			if err != nil {
				b.Fatal(err)
			}
			fs, d := env.FS, env.Dirs[0].Dir
			acc := &rangeAccess{m: m}
			_, err = fs.Lookup(acc, d, tc.file) // prime
			if found := err == nil; found == (tc.name == "absent") {
				b.Fatalf("lookup of %s: %v", tc.file, err)
			}
			slots := acc.commit()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs.Lookup(acc, d, tc.file)
				acc.commit()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slots), "ns/slot")
		})
	}
}
