// Package perfctr models the per-core hardware event counters that
// CoreTime's runtime monitor reads (paper §4, "Runtime monitoring").
//
// The paper uses AMD event counters to count cache misses between a pair of
// annotations, and per-core idle cycles, DRAM loads, and L2 loads to detect
// overloaded cores. The simulated machine increments exactly these classes
// of events on its access path, and the monitor consumes them through
// snapshots and deltas, never by guessing at simulator internals — keeping
// the scheduler honest about what real hardware would expose.
package perfctr

import "fmt"

// Counters is the event-counter file of one core. All values are
// monotonically increasing event counts except the cycle accounts.
type Counters struct {
	Loads  uint64 // load micro-ops issued
	Stores uint64 // store micro-ops issued

	L1Miss uint64 // loads/stores that missed L1
	L2Miss uint64 // ... and missed L2
	L3Miss uint64 // ... and missed the chip's L3

	L2Loads       uint64 // accesses served by the local L2
	L3Loads       uint64 // accesses served by the chip's L3
	RemoteFetches uint64 // lines sourced from another core's/chip's cache
	DRAMLoads     uint64 // lines sourced from DRAM

	Invalidations uint64 // coherence invalidations this core caused
	Evictions     uint64 // lines this core's caches evicted

	BusyCycles  uint64 // cycles spent executing operations
	IdleCycles  uint64 // cycles with no runnable thread
	StallCycles uint64 // cycles stalled on memory (subset of BusyCycles)
	QueueWait   uint64 // cycles threads spent waiting to run on this core

	// DRAMQueueCycles and LinkQueueCycles split out the bandwidth-stall
	// component of StallCycles: queueing delay this core's fetches accrued
	// at saturated memory controllers and interconnect ports. On machines
	// that never saturate they stay zero; at scale they are the signal
	// that contention, not distance, is the binding cost.
	DRAMQueueCycles uint64 // memory-controller queueing delay charged to this core
	LinkQueueCycles uint64 // cross-socket interconnect queueing delay charged to this core

	MigrationsIn  uint64 // threads that migrated to this core
	MigrationsOut uint64 // threads that migrated away
}

// Misses returns the total cache-miss count the paper's monitor attributes
// to an operation: accesses that left the local L1/L2 pair (the per-core
// private hierarchy) and had to be served by L3, a remote cache, or DRAM.
func (c Counters) Misses() uint64 { return c.L2Miss }

// Sub returns the element-wise difference c - o, used to compute the events
// that occurred between two snapshots (e.g. between ct_start and ct_end).
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Loads:           c.Loads - o.Loads,
		Stores:          c.Stores - o.Stores,
		L1Miss:          c.L1Miss - o.L1Miss,
		L2Miss:          c.L2Miss - o.L2Miss,
		L3Miss:          c.L3Miss - o.L3Miss,
		L2Loads:         c.L2Loads - o.L2Loads,
		L3Loads:         c.L3Loads - o.L3Loads,
		RemoteFetches:   c.RemoteFetches - o.RemoteFetches,
		DRAMLoads:       c.DRAMLoads - o.DRAMLoads,
		Invalidations:   c.Invalidations - o.Invalidations,
		Evictions:       c.Evictions - o.Evictions,
		BusyCycles:      c.BusyCycles - o.BusyCycles,
		IdleCycles:      c.IdleCycles - o.IdleCycles,
		StallCycles:     c.StallCycles - o.StallCycles,
		QueueWait:       c.QueueWait - o.QueueWait,
		DRAMQueueCycles: c.DRAMQueueCycles - o.DRAMQueueCycles,
		LinkQueueCycles: c.LinkQueueCycles - o.LinkQueueCycles,
		MigrationsIn:    c.MigrationsIn - o.MigrationsIn,
		MigrationsOut:   c.MigrationsOut - o.MigrationsOut,
	}
}

// Add returns the element-wise sum, for machine-wide totals.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Loads:           c.Loads + o.Loads,
		Stores:          c.Stores + o.Stores,
		L1Miss:          c.L1Miss + o.L1Miss,
		L2Miss:          c.L2Miss + o.L2Miss,
		L3Miss:          c.L3Miss + o.L3Miss,
		L2Loads:         c.L2Loads + o.L2Loads,
		L3Loads:         c.L3Loads + o.L3Loads,
		RemoteFetches:   c.RemoteFetches + o.RemoteFetches,
		DRAMLoads:       c.DRAMLoads + o.DRAMLoads,
		Invalidations:   c.Invalidations + o.Invalidations,
		Evictions:       c.Evictions + o.Evictions,
		BusyCycles:      c.BusyCycles + o.BusyCycles,
		IdleCycles:      c.IdleCycles + o.IdleCycles,
		StallCycles:     c.StallCycles + o.StallCycles,
		QueueWait:       c.QueueWait + o.QueueWait,
		DRAMQueueCycles: c.DRAMQueueCycles + o.DRAMQueueCycles,
		LinkQueueCycles: c.LinkQueueCycles + o.LinkQueueCycles,
		MigrationsIn:    c.MigrationsIn + o.MigrationsIn,
		MigrationsOut:   c.MigrationsOut + o.MigrationsOut,
	}
}

// String summarises the counters for reports.
func (c Counters) String() string {
	return fmt.Sprintf("loads=%d stores=%d l2miss=%d dram=%d remote=%d busy=%d idle=%d",
		c.Loads, c.Stores, c.L2Miss, c.DRAMLoads, c.RemoteFetches, c.BusyCycles, c.IdleCycles)
}

// RollupGroups sums per-core counter files into per-group totals: core i's
// counters are added into dst[groupOf[i]]. The caller supplies dst sized to
// the group count (it is zeroed first) and a core→group table — typically
// topology.Config.ChipTable, which makes this the per-socket rollup of
// the telemetry sampler's bandwidth-queue rows. dst is returned for
// chaining; the call allocates nothing.
func RollupGroups(dst, cores []Counters, groupOf []int) []Counters {
	for i := range dst {
		dst[i] = Counters{}
	}
	for i := range cores {
		g := groupOf[i]
		dst[g] = dst[g].Add(cores[i])
	}
	return dst
}

// Set is the counter file of a whole machine: one Counters per core.
type Set struct {
	cores []Counters
}

// NewSet returns counters for n cores.
func NewSet(n int) *Set {
	return &Set{cores: make([]Counters, n)}
}

// NumCores returns the number of per-core counter files.
func (s *Set) NumCores() int { return len(s.cores) }

// Core returns a mutable pointer to core i's counters; the machine model
// increments through it.
func (s *Set) Core(i int) *Counters { return &s.cores[i] }

// Snapshot returns a copy of core i's counters, the read primitive monitors
// use (reading hardware counters is a snapshot, not a live view).
func (s *Set) Snapshot(i int) Counters { return s.cores[i] }

// SnapshotAll copies every core's counters.
func (s *Set) SnapshotAll() []Counters {
	return s.AppendSnapshots(make([]Counters, 0, len(s.cores)))
}

// AppendSnapshots appends a copy of every core's counters to dst and
// returns the extended slice — the allocation-free sibling of SnapshotAll
// for monitors that sample every rebalance interval with a reusable
// scratch buffer.
func (s *Set) AppendSnapshots(dst []Counters) []Counters {
	return append(dst, s.cores...)
}

// Total sums all cores.
func (s *Set) Total() Counters {
	var t Counters
	for i := range s.cores {
		t = t.Add(s.cores[i])
	}
	return t
}

// Reset zeroes every counter (between benchmark phases).
func (s *Set) Reset() {
	for i := range s.cores {
		s.cores[i] = Counters{}
	}
}
