// Package topology describes the geometry of a simulated multicore machine:
// how many chips and cores it has, the cache hierarchy attached to each,
// the physical placement of chips on an interconnect grid, and the access
// latencies between levels.
//
// The package is pure description — it owns no simulation state — so both
// the machine model and the CoreTime scheduler can consult it freely.
package topology

import (
	"fmt"

	"repro/internal/sim"
)

// CacheGeom describes one cache: total capacity, line size, and
// associativity. Sizes are in bytes.
type CacheGeom struct {
	Size     int
	LineSize int
	Assoc    int
}

// Sets returns the number of sets implied by the geometry.
func (g CacheGeom) Sets() int {
	lines := g.Size / g.LineSize
	if g.Assoc <= 0 || lines == 0 {
		return 0
	}
	return lines / g.Assoc
}

// Validate reports a descriptive error when the geometry is unusable.
func (g CacheGeom) Validate(name string) error {
	switch {
	case g.Size <= 0:
		return fmt.Errorf("topology: %s size %d must be positive", name, g.Size)
	case g.LineSize <= 0 || g.LineSize&(g.LineSize-1) != 0:
		return fmt.Errorf("topology: %s line size %d must be a positive power of two", name, g.LineSize)
	case g.Size%g.LineSize != 0:
		return fmt.Errorf("topology: %s size %d not a multiple of line size %d", name, g.Size, g.LineSize)
	case g.Assoc <= 0:
		return fmt.Errorf("topology: %s associativity %d must be positive", name, g.Assoc)
	case (g.Size/g.LineSize)%g.Assoc != 0:
		return fmt.Errorf("topology: %s lines %d not divisible by associativity %d",
			name, g.Size/g.LineSize, g.Assoc)
	case g.Sets()&(g.Sets()-1) != 0:
		return fmt.Errorf("topology: %s set count %d must be a power of two", name, g.Sets())
	}
	return nil
}

// Latencies holds the access costs of the memory system, in cycles. The
// defaults reproduce the numbers the paper measured on its 16-core AMD
// machine (§5): L1 3, L2 14, L3 75; remote fetches from 127 cycles
// (cache of a core on the same chip) to 336 cycles (most distant DRAM bank).
type Latencies struct {
	L1Hit sim.Cycles // local L1 hit
	L2Hit sim.Cycles // local L2 hit
	L3Hit sim.Cycles // hit in the chip's shared L3

	// RemoteCacheSameChip is the cost of fetching a line from another
	// core's cache on the same chip.
	RemoteCacheSameChip sim.Cycles
	// RemoteCachePerHop is added per interconnect hop when the line comes
	// from a cache on another chip.
	RemoteCachePerHop sim.Cycles

	// DRAMLocal is the cost of a load from the chip-local DRAM bank;
	// DRAMPerHop is added per hop to a remote bank. With the AMD defaults
	// the most distant bank (2 hops on the 2×2 grid) costs 336 cycles.
	DRAMLocal  sim.Cycles
	DRAMPerHop sim.Cycles

	// DRAMServiceInterval is the minimum spacing between line transfers a
	// single memory controller can sustain; demand beyond that queues.
	// It is the knob that models limited off-chip bandwidth.
	DRAMServiceInterval sim.Cycles

	// LinkServiceInterval is the minimum spacing between line transfers
	// one chip's interconnect port can sustain. Cross-socket fetches
	// (remote-cache sourcing and remote-home DRAM fills) queue at the
	// source chip's port when traffic exceeds it. Zero disables
	// interconnect metering entirely — the pre-NUMA presets keep it zero,
	// so their results are untouched by the bandwidth model.
	LinkServiceInterval sim.Cycles

	// InvalidateCost is added to a store that must invalidate remote
	// sharers (coherence broadcast on the interconnect).
	InvalidateCost sim.Cycles
}

// Config describes a whole machine.
type Config struct {
	Name         string
	Chips        int
	CoresPerChip int

	// GridW×GridH arranges chips on a rectangular interconnect; hop
	// distance between chips is the Manhattan distance between their grid
	// positions (the paper's machine is a 2×2 "square interconnect").
	GridW, GridH int

	L1 CacheGeom // per core
	L2 CacheGeom // per core
	L3 CacheGeom // per chip, shared by its cores

	Lat Latencies

	// ClockHz converts simulated cycles to seconds when reporting
	// throughput (the paper's machine runs at 2 GHz).
	ClockHz float64

	// CoreSpeed optionally scales per-core compute cost: cycle charges on
	// core i are multiplied by CoreSpeed[i]. Empty means all cores run at
	// speed 1.0. Used by the heterogeneous-cores ablation (§6.1).
	CoreSpeed []float64
}

// AMDLatencies returns the latencies measured in the paper.
func AMDLatencies() Latencies {
	return Latencies{
		L1Hit:               3,
		L2Hit:               14,
		L3Hit:               75,
		RemoteCacheSameChip: 127,
		RemoteCachePerHop:   50, // 177 at one hop, 227 across the diagonal
		DRAMLocal:           230,
		DRAMPerHop:          53, // 336 to the most distant bank, as measured
		DRAMServiceInterval: 16, // ~8 GB/s per controller at 2 GHz, 64 B lines
		InvalidateCost:      40,
	}
}

// NUMALatencies returns the latency set of the big-machine NUMA presets:
// the paper's measured AMD latencies plus a modeled interconnect port
// (LinkServiceInterval 8 ≈ 16 GB/s per port at 2 GHz and 64 B lines),
// metered like the memory controllers.
func NUMALatencies() Latencies {
	l := AMDLatencies()
	l.LinkServiceInterval = 8
	return l
}

// numaConfig builds one member of the NUMA preset family: 8-core sockets
// with AMD-style private caches and a large 8 MB shared victim L3 per
// socket, on a gw×gh interconnect grid.
func numaConfig(name string, chips, gw, gh int) Config {
	return Config{
		Name:         name,
		Chips:        chips,
		CoresPerChip: 8,
		GridW:        gw,
		GridH:        gh,
		L1:           CacheGeom{Size: 64 << 10, LineSize: 64, Assoc: 2},
		L2:           CacheGeom{Size: 512 << 10, LineSize: 64, Assoc: 16},
		L3:           CacheGeom{Size: 8 << 20, LineSize: 64, Assoc: 32},
		Lat:          NUMALatencies(),
		ClockHz:      2e9,
	}
}

// NUMA64 returns a 64-core NUMA machine: eight 8-core sockets on a 4×2
// grid, per-core 64 KB L1 and 512 KB L2, per-socket 8 MB shared victim
// L3, with socket-local vs remote DRAM distance and bandwidth modeled
// (saturating memory controllers and interconnect ports; see
// NUMALatencies). The smallest machine of the scale sweep's NUMA family.
func NUMA64() Config { return numaConfig("numa64", 8, 4, 2) }

// NUMA128 returns a 128-core NUMA machine: sixteen 8-core sockets on a
// 4×4 grid, otherwise identical per-socket resources to NUMA64. Twice the
// cores share the same per-socket DRAM and link bandwidth, so bandwidth
// binds earlier.
func NUMA128() Config { return numaConfig("numa128", 16, 4, 4) }

// NUMA256 returns a 256-core NUMA machine: thirty-two 8-core sockets on
// an 8×4 grid — the scale target of the big-machine experiments. Its 288
// directory nodes exercise the multi-word sharer bitset; hop distances
// reach 10, so placement and bandwidth both matter.
func NUMA256() Config { return numaConfig("numa256", 32, 8, 4) }

// AMD16 returns the paper's evaluation machine: four quad-core 2 GHz
// Opteron chips on a square interconnect; per-core 64 KB L1 and 512 KB L2,
// per-chip 2 MB shared (victim) L3. Total on-chip capacity relevant to the
// benchmark: 4×2 MB L3 + 16×512 KB L2 = 16 MB (§5).
func AMD16() Config {
	return Config{
		Name:         "amd16",
		Chips:        4,
		CoresPerChip: 4,
		GridW:        2,
		GridH:        2,
		L1:           CacheGeom{Size: 64 << 10, LineSize: 64, Assoc: 2},
		L2:           CacheGeom{Size: 512 << 10, LineSize: 64, Assoc: 16},
		L3:           CacheGeom{Size: 2 << 20, LineSize: 64, Assoc: 32},
		Lat:          AMDLatencies(),
		ClockHz:      2e9,
	}
}

// Tiny8 returns an 8-core, 4-chip machine with kilobyte-scale caches: the
// smallest configuration that still exhibits the paper's core effect
// (per-chip duplication of shared data), at a fraction of the simulation
// cost of AMD16. Used by tests and the quickstart example.
func Tiny8() Config {
	return Config{
		Name:         "tiny8",
		Chips:        4,
		CoresPerChip: 2,
		GridW:        2,
		GridH:        2,
		L1:           CacheGeom{Size: 1 << 10, LineSize: 64, Assoc: 2},
		L2:           CacheGeom{Size: 16 << 10, LineSize: 64, Assoc: 8},
		L3:           CacheGeom{Size: 32 << 10, LineSize: 64, Assoc: 8},
		Lat:          AMDLatencies(),
		ClockHz:      2e9,
	}
}

// Small returns a 4-core single-chip machine with tiny caches, convenient
// for unit tests and the quickstart example: effects like capacity misses
// appear at kilobyte scale instead of megabyte scale.
func Small() Config {
	return Config{
		Name:         "small4",
		Chips:        1,
		CoresPerChip: 4,
		GridW:        1,
		GridH:        1,
		L1:           CacheGeom{Size: 1 << 10, LineSize: 64, Assoc: 2},
		L2:           CacheGeom{Size: 8 << 10, LineSize: 64, Assoc: 4},
		L3:           CacheGeom{Size: 32 << 10, LineSize: 64, Assoc: 8},
		Lat:          AMDLatencies(),
		ClockHz:      2e9,
	}
}

// NumCores returns the total number of cores.
func (c Config) NumCores() int { return c.Chips * c.CoresPerChip }

// ChipOf returns the chip that core belongs to.
func (c Config) ChipOf(core int) int { return core / c.CoresPerChip }

// ChipTable returns a freshly allocated core→chip lookup table:
// table[core] == ChipOf(core). Monitors that roll per-core counters up to
// per-socket totals every rebalance interval build this once and index it
// on the hot path instead of re-deriving the division.
func (c Config) ChipTable() []int {
	table := make([]int, c.NumCores())
	for core := range table {
		table[core] = c.ChipOf(core)
	}
	return table
}

// CoresOf returns the core IDs belonging to chip, in ascending order.
func (c Config) CoresOf(chip int) []int {
	cores := make([]int, c.CoresPerChip)
	for i := range cores {
		cores[i] = chip*c.CoresPerChip + i
	}
	return cores
}

// SpeedOf returns the cycle-cost multiplier of core (1.0 when homogeneous).
func (c Config) SpeedOf(core int) float64 {
	if core < len(c.CoreSpeed) && c.CoreSpeed[core] > 0 {
		return c.CoreSpeed[core]
	}
	return 1.0
}

// HopDistance returns the Manhattan distance between two chips on the grid.
func (c Config) HopDistance(chipA, chipB int) int {
	ax, ay := chipA%c.GridW, chipA/c.GridW
	bx, by := chipB%c.GridW, chipB/c.GridW
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// RemoteCacheLatency returns the cost for a core on chip `from` to fetch a
// line held in a cache on chip `holder`.
func (c Config) RemoteCacheLatency(from, holder int) sim.Cycles {
	if from == holder {
		return c.Lat.RemoteCacheSameChip
	}
	hops := c.HopDistance(from, holder)
	return c.Lat.RemoteCacheSameChip + sim.Cycles(hops)*c.Lat.RemoteCachePerHop
}

// DRAMLatency returns the raw (uncontended) cost for a core on chip `from`
// to load a line whose home DRAM bank is on chip `home`.
func (c Config) DRAMLatency(from, home int) sim.Cycles {
	hops := c.HopDistance(from, home)
	return c.Lat.DRAMLocal + sim.Cycles(hops)*c.Lat.DRAMPerHop
}

// TotalOnChipBytes returns the aggregate cache capacity an O2 scheduler can
// pack objects into: every L2 plus every L3 (L1s are too small and too
// volatile to count, matching the paper's 16 MB arithmetic).
func (c Config) TotalOnChipBytes() int {
	return c.NumCores()*c.L2.Size + c.Chips*c.L3.Size
}

// PerCoreBudgetBytes returns the cache capacity attributable to one core:
// its private L2 plus an equal share of its chip's L3. This is the budget
// the cache-packing algorithm fills.
func (c Config) PerCoreBudgetBytes() int {
	return c.L2.Size + c.L3.Size/c.CoresPerChip
}

// Validate reports a descriptive error when the configuration is unusable.
func (c Config) Validate() error {
	switch {
	case c.Chips <= 0 || c.CoresPerChip <= 0:
		return fmt.Errorf("topology: need at least one chip and one core per chip, got %d×%d",
			c.Chips, c.CoresPerChip)
	case c.GridW*c.GridH != c.Chips:
		return fmt.Errorf("topology: grid %d×%d does not hold %d chips", c.GridW, c.GridH, c.Chips)
	case c.ClockHz <= 0:
		return fmt.Errorf("topology: clock %v Hz must be positive", c.ClockHz)
	}
	if err := c.L1.Validate("L1"); err != nil {
		return err
	}
	if err := c.L2.Validate("L2"); err != nil {
		return err
	}
	if err := c.L3.Validate("L3"); err != nil {
		return err
	}
	if c.L1.LineSize != c.L2.LineSize || c.L2.LineSize != c.L3.LineSize {
		return fmt.Errorf("topology: cache levels must share a line size (got %d/%d/%d)",
			c.L1.LineSize, c.L2.LineSize, c.L3.LineSize)
	}
	if c.L2.Sets() < c.L1.Sets() {
		// With at least as many L2 sets, an L1 set's most recently used
		// line is also the most recently used line of its L2 set, which
		// the machine model's L1-hit path relies on.
		return fmt.Errorf("topology: L2 must have at least as many sets as L1 (got %d < %d)",
			c.L2.Sets(), c.L1.Sets())
	}
	if len(c.CoreSpeed) != 0 && len(c.CoreSpeed) != c.NumCores() {
		return fmt.Errorf("topology: CoreSpeed has %d entries for %d cores",
			len(c.CoreSpeed), c.NumCores())
	}
	return nil
}
