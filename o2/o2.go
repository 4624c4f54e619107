// Package o2 is the public façade of the repository: the single supported
// entry point to the O2/CoreTime scheduling system reproduced from
// "Reinventing Scheduling for Multicore Systems" (Boyd-Wickizer, Morris,
// Kaashoek; HotOS XII, 2009).
//
// A Runtime is built with functional options and bundles the whole
// substrate — simulation engine, machine model, execution system, and the
// selected scheduler:
//
//	rt, err := o2.New(
//		o2.WithTopology(o2.Tiny8),
//		o2.WithScheduler(o2.CoreTime),
//		o2.WithDecayWindow(10_000_000),
//	)
//
// Shared data becomes objects (Runtime.NewObject or a built workload such
// as Runtime.NewDirTree), code becomes green threads (Runtime.Go), and
// every operation on an object is bracketed by a scoped handle that
// subsumes the paper's ct_start/ct_end annotation pair:
//
//	op := t.Begin(obj)   // maybe migrates to the core caching obj
//	defer op.End()       // maybe migrates back; End is idempotent
//
// Because Begin returns a handle whose End runs at most once and must
// close operations innermost-first, unbalanced annotation pairs are
// impossible by construction.
//
// The package also carries the evaluation layer: Experiment compares
// schedulers on the directory-lookup workload in a few lines, Sweep
// executes declarative parameter grids on a bounded worker pool with
// deterministic per-cell seeds and repeat statistics, the Presets, Fig2
// and the Ablations regenerate the paper's figures, its §6 ablations,
// and the scenarios built on them on that engine, and LatencyTable and
// MigrationCost probe the machine directly (cmd/o2bench is a thin
// wrapper). Everything under internal/ is free to
// evolve behind this façade; new scenarios should build on this package
// alone.
package o2

import (
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Cycles is a duration in simulated clock cycles.
type Cycles = sim.Cycles

// Time is an absolute instant in simulated cycles since the run started.
type Time = sim.Time

// Addr is an address in the simulated machine's physical memory.
type Addr = mem.Addr

// Topology describes a simulated machine: chips, cores, cache hierarchy,
// and interconnect. Use one of the presets (AMD16, Tiny8, or the 256-core
// NUMA256) or derive a variant with its With* methods. The zero value is
// invalid.
type Topology struct {
	cfg topology.Config
}

// Preset machine topologies.
var (
	// AMD16 is the paper's evaluation machine: four quad-core 2 GHz
	// chips on a square interconnect, 16 MB of schedulable on-chip cache.
	AMD16 = Topology{topology.AMD16()}
	// Tiny8 is an 8-core, 4-chip machine with kilobyte-scale caches: the
	// smallest configuration exhibiting the paper's effects, at a
	// fraction of the simulation cost. Preferred for examples and tests.
	Tiny8 = Topology{topology.Tiny8()}
	// NUMA256 is a 256-core NUMA machine (thirty-two 8-core sockets, 8×4
	// grid) — the scale target of the big-machine experiments. Its 288
	// coherence-directory nodes run on the multi-word sharer bitset, and
	// hop distances reach 10.
	NUMA256 = Topology{topology.NUMA256()}
)

// The machines only the package's own presets and tests use.
var (
	// small4 is a 4-core single-chip machine for unit tests.
	small4 = Topology{topology.Small()}

	// numa64 is a 64-core NUMA machine: eight 8-core sockets on a 4×2
	// interconnect grid, per-socket 8 MB shared L3, with memory-controller
	// *and* interconnect bandwidth modeled as saturating resources —
	// sustained overload builds real queueing delay instead of resetting
	// at each window. The smallest member of the scale sweep's NUMA family.
	numa64 = Topology{topology.NUMA64()}
	// numa128 is a 128-core NUMA machine (sixteen 8-core sockets, 4×4
	// grid): twice numa64's cores contending for the same per-socket DRAM
	// and link bandwidth, so bandwidth binds earlier.
	numa128 = Topology{topology.NUMA128()}
)

// Name returns the topology's name ("amd16", "tiny8", ...).
func (t Topology) Name() string { return t.cfg.Name }

// orDefault resolves the zero Topology to the paper's machine, AMD16.
func (t Topology) orDefault() Topology {
	if t.cfg.Chips == 0 {
		return AMD16
	}
	return t
}

// NumCores returns the total core count.
func (t Topology) NumCores() int { return t.cfg.NumCores() }

// Chips returns the chip count.
func (t Topology) Chips() int { return t.cfg.Chips }

// ClockHz returns the clock rate used to convert cycles to seconds.
func (t Topology) ClockHz() float64 { return t.cfg.ClockHz }

// TotalCacheBytes returns the aggregate cache capacity an O2 scheduler can
// pack objects into (every L2 plus every L3).
func (t Topology) TotalCacheBytes() int { return t.cfg.TotalOnChipBytes() }

// PerCoreBudgetBytes returns the cache capacity attributable to one core:
// its private L2 plus an equal share of its chip's L3.
func (t Topology) PerCoreBudgetBytes() int { return t.cfg.PerCoreBudgetBytes() }

// WithCoreSpeeds returns a copy of the topology whose per-core cycle costs
// are scaled by the given factors (>1 = slower core), one per core. Used by
// the heterogeneous-cores ablation (paper §6.1).
func (t Topology) WithCoreSpeeds(speeds ...float64) Topology {
	cfg := t.cfg
	cfg.CoreSpeed = append([]float64(nil), speeds...)
	return Topology{cfg}
}

// Scheduler selects the scheduling policy a Runtime uses.
type Scheduler int

const (
	// CoreTime is the paper's O2 scheduler: objects are assigned to
	// caches and threads migrate to the core caching the object they
	// operate on. The default.
	CoreTime Scheduler = iota
	// Baseline is the traditional thread scheduler: threads stay on
	// their home cores and caches fill implicitly (the paper's
	// "without CoreTime" configuration).
	Baseline
	// Affinity is static hash-affinity pinning: every object is assigned
	// a fixed core by hashing its address and threads migrate there for
	// each operation. It serializes object access onto one core like
	// CoreTime but does no monitoring, packing, or rebalancing — the
	// consistent-hashing placement a conventional sharded service
	// deploys, and the middle baseline of the KVService scenario.
	Affinity
)

// String implements fmt.Stringer, matching Result.Scheduler values.
func (s Scheduler) String() string {
	switch s {
	case Baseline:
		return "thread-scheduler"
	case Affinity:
		return "hash-affinity"
	default:
		return "coretime"
	}
}

// SchedStats counts CoreTime runtime events (operations, migrations,
// placements, monitor activity).
type SchedStats = core.Stats

// TraceEvent is one scheduler decision recorded when tracing is enabled
// (WithTrace).
type TraceEvent = trace.Event

// TraceKind classifies a TraceEvent; compare against the Ev* constants.
// Without this alias the TraceEvent.Kind field had a type callers could
// not name through the façade (o2lint:facade).
type TraceKind = trace.Kind

// Trace event kinds, re-exported so callers can filter TraceEvents
// without importing internal packages.
const (
	EvPlace     TraceKind = trace.EvPlace
	EvUnplace   TraceKind = trace.EvUnplace
	EvMove      TraceKind = trace.EvMove
	EvMigrate   TraceKind = trace.EvMigrate
	EvDisperse  TraceKind = trace.EvDisperse
	EvReplicate TraceKind = trace.EvReplicate
	EvCollapse  TraceKind = trace.EvCollapse
	EvRebalance TraceKind = trace.EvRebalance
)

// Metric is one named reading of the runtime's metrics registry (see
// Runtime.Metrics): a subsystem counter's current count or a gauge's
// current value.
type Metric = telemetry.Metric

// RNG is the deterministic, splittable random number generator simulated
// workloads use; identical seeds give identical runs.
type RNG = stats.RNG

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// RoundRobin returns the home core for each of n threads spread across
// cores round-robin, the placement a conventional scheduler picks for a
// CPU-bound pool.
func RoundRobin(threads, cores int) []int {
	homes := make([]int, threads)
	for i := range homes {
		homes[i] = i % cores
	}
	return homes
}

// DirSpec sizes the directory-lookup workload's tree (see
// Runtime.NewDirTree): Dirs directories of EntriesPerDir 32-byte entries.
type DirSpec = workload.DirSpec

// PathSpec sizes the two-level path-resolution workload's tree (see
// Runtime.NewPathTree).
type PathSpec = workload.PathSpec

// Popularity selects which directories the built-in workload drivers
// target.
type Popularity = workload.Popularity

// Popularity distributions for RunParams.
const (
	// Uniform picks uniformly over all directories (paper Fig. 4a).
	Uniform = workload.Uniform
	// Oscillating alternates between the full set and a fraction of it
	// every OscillatePeriod (paper Fig. 4b).
	Oscillating = workload.Oscillating
	// Hotspot sends HotFraction of lookups to the first HotDirs
	// directories.
	Hotspot = workload.Hotspot
	// UniformThenHotspot behaves as Uniform until PhaseShiftAt, then as
	// Hotspot.
	UniformThenHotspot = workload.UniformThenHotspot
)

// RunParams drive one measurement of a built workload (threads, warmup and
// measurement windows, popularity distribution, seed).
type RunParams = workload.RunParams

// DefaultRunParams returns the parameters used by the paper's figure
// harnesses.
func DefaultRunParams() RunParams { return workload.DefaultRunParams() }

// Result is one measured workload run.
type Result = workload.Result

// PathResult is one measured path-resolution run.
type PathResult = workload.PathResult
