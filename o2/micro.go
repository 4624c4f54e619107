package o2

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

// LatencyRow is one line of the §5 hardware-latency table.
type LatencyRow struct {
	Name     string
	Measured Cycles
	Paper    Cycles // the value §5 reports, 0 when the paper gives a range
}

// LatencyTable measures the memory-system latencies of the simulated AMD16
// machine with targeted probes, mirroring the numbers the paper reports in
// §5: L1 3, L2 14, L3 75 cycles; remote fetches 127–336 cycles. The probes
// poke the machine model directly, below the scheduling API.
func LatencyTable() ([]LatencyRow, error) {
	cfg := AMD16.cfg
	m, err := machine.New(cfg, 64<<20)
	if err != nil {
		return nil, err
	}
	var rows []LatencyRow
	var at sim.Time

	probe := func(name string, paper Cycles, f func() Cycles) {
		rows = append(rows, LatencyRow{Name: name, Measured: f(), Paper: paper})
	}

	lineSize := mem.Addr(m.LineSize())
	addr := mem.Addr(64 << 10)

	// L1 hit: touch a line twice.
	probe("L1 hit", cfg.Lat.L1Hit, func() Cycles {
		at += m.Access(0, addr, false, at)
		lat := m.Access(0, addr, false, at)
		at += lat
		return lat
	})

	// L2 hit: evict the probe line from L1 by streaming other lines
	// until it leaves L1 (it stays in the much larger L2), then reload.
	probe("L2 hit", cfg.Lat.L2Hit, func() Cycles {
		target := addr + 128<<10
		at += m.Access(0, target, false, at)
		tl := cache.LineOf(target, m.LineSize())
		fill := target + 1<<20
		for i := 0; m.L1Holds(0, tl); i++ {
			at += m.Access(0, fill+mem.Addr(i)*lineSize, false, at)
			if i > 4*cfg.L1.Size/cfg.L1.LineSize {
				break // cannot happen; guard against infinite loop
			}
		}
		if !m.L2(0).Contains(tl) {
			return 0
		}
		lat := m.Access(0, target, false, at)
		at += lat
		return lat
	})

	// L3 hit: stream twice the L2 capacity through core 0, then reload an
	// early line — it must come from the chip's victim L3.
	probe("L3 hit", cfg.Lat.L3Hit, func() Cycles {
		base := mem.Addr(1 << 20)
		l2lines := cfg.L2.Size / cfg.L2.LineSize
		for i := 0; i < 2*l2lines; i++ {
			at += m.Access(0, base+mem.Addr(i)*lineSize, false, at)
		}
		// Find an early line that really is in the L3 (associativity
		// makes exact victims config-dependent).
		for i := 0; i < 2*l2lines; i++ {
			a := base + mem.Addr(i)*lineSize
			if m.L3(0).Contains(cache.LineOf(a, m.LineSize())) {
				lat := m.Access(0, a, false, at)
				at += lat
				return lat
			}
		}
		return 0
	})

	// Remote cache, same chip: core 1 holds the line, core 0 fetches.
	probe("remote cache (same chip)", cfg.Lat.RemoteCacheSameChip, func() Cycles {
		a := mem.Addr(8 << 20)
		at += m.Access(1, a, false, at)
		lat := m.Access(0, a, false, at)
		at += lat
		return lat
	})

	// Remote cache, adjacent chip (1 hop).
	probe("remote cache (1 hop)", 0, func() Cycles {
		a := mem.Addr(9 << 20)
		at += m.Access(4, a, false, at) // core 4 is chip 1
		lat := m.Access(0, a, false, at)
		at += lat
		return lat
	})

	// Remote cache, diagonal chip (2 hops).
	probe("remote cache (2 hops)", 0, func() Cycles {
		a := mem.Addr(10 << 20)
		at += m.Access(12, a, false, at) // core 12 is chip 3
		lat := m.Access(0, a, false, at)
		at += lat
		return lat
	})

	// DRAM: lines are interleaved across chips by line number, so line
	// numbers ≡ chip give local vs most-distant banks. Probe far in the
	// future so no controller queueing applies.
	at += 1_000_000
	probe("DRAM (local bank)", cfg.Lat.DRAMLocal, func() Cycles {
		a := alignToHomeChip(m, mem.Addr(11<<20), 0)
		lat := m.Access(0, a, false, at)
		at += lat
		return lat
	})
	probe("DRAM (most distant bank)", 336, func() Cycles {
		a := alignToHomeChip(m, mem.Addr(12<<20), 3)
		lat := m.Access(0, a, false, at)
		at += lat
		return lat
	})

	return rows, nil
}

// alignToHomeChip returns the first address at or after a whose line is
// homed on the given chip.
func alignToHomeChip(m *machine.Machine, a mem.Addr, chip int) mem.Addr {
	ls := mem.Addr(m.LineSize())
	chips := mem.Addr(m.Config().Chips)
	for {
		line := a / ls
		if int(line%chips) == chip {
			return a
		}
		a += ls
	}
}

// WriteLatencyTable formats the latency rows.
func WriteLatencyTable(w io.Writer, rows []LatencyRow) {
	fmt.Fprintf(w, "# Memory-system latencies (cycles), AMD16 model vs paper §5\n")
	fmt.Fprintf(w, "%-28s %10s %10s\n", "level", "measured", "paper")
	for _, r := range rows {
		paper := "—"
		if r.Paper != 0 {
			paper = cyclesToString(r.Paper)
		}
		fmt.Fprintf(w, "%-28s %10d %10s\n", r.Name, r.Measured, paper)
	}
}

// MigrationResult summarises the migration-cost microbenchmark (§5 reports
// 2000 cycles).
type MigrationResult struct {
	Trials      int
	MeanCycles  float64
	SameChip    float64 // mean cost migrating within a chip
	CrossChip   float64 // mean cost migrating across the diagonal
	PaperCycles float64
}

// MigrationCost measures the round-trip thread migration cost on the AMD16
// model: a thread repeatedly migrates to a target core and back, and the
// per-migration cost is averaged. The two probes (same-chip, diagonal
// cross-chip) each run on a fresh machine.
func MigrationCost(trials int) (MigrationResult, error) {
	if trials <= 0 {
		trials = 64
	}
	var costs [2]float64
	for i, target := range []int{1, 12} { // same chip; diagonal chip (2 hops)
		// The probe drives migration explicitly, so no scheduler is
		// needed.
		rt, err := New(WithTopology(AMD16), WithScheduler(Baseline))
		if err != nil {
			return MigrationResult{}, err
		}
		var total Cycles
		rt.Go("migrator", 0, func(t *Thread) {
			// Warm the context buffer and the path once.
			t.MigrateTo(target)
			t.ReturnHome()
			for range trials {
				start := t.Now()
				t.MigrateTo(target)
				t.ReturnHome()
				total += t.Now() - start
			}
		})
		rt.Run()
		costs[i] = float64(total) / float64(2*trials)
	}
	same, cross := costs[0], costs[1]
	return MigrationResult{
		Trials:      trials,
		MeanCycles:  (same + cross) / 2,
		SameChip:    same,
		CrossChip:   cross,
		PaperCycles: 2000,
	}, nil
}

// WriteMigrationResult formats the migration microbenchmark.
func WriteMigrationResult(w io.Writer, r MigrationResult) {
	fmt.Fprintf(w, "# Thread migration cost (cycles), %d trials\n", r.Trials)
	fmt.Fprintf(w, "%-24s %10.0f\n", "same chip", r.SameChip)
	fmt.Fprintf(w, "%-24s %10.0f\n", "cross chip (2 hops)", r.CrossChip)
	fmt.Fprintf(w, "%-24s %10.0f\n", "mean", r.MeanCycles)
	fmt.Fprintf(w, "%-24s %10.0f\n", "paper (§5)", r.PaperCycles)
}
