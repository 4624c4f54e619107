package core

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// ReplacementPolicy selects what happens when an object worth placing no
// longer fits in any cache budget (working set larger than total on-chip
// memory, paper §6.2).
type ReplacementPolicy int

const (
	// ReplaceNone is the paper's base algorithm: first-fit, and objects
	// that do not fit stay unplaced (served from DRAM).
	ReplaceNone ReplacementPolicy = iota
	// ReplaceFrequency evicts the least frequently used placed object
	// when a hotter object needs its space — the cache-replacement
	// policy sketched in §6.2 ("stores the objects accessed most
	// frequently on-chip").
	ReplaceFrequency
)

// String implements fmt.Stringer for reports.
func (p ReplacementPolicy) String() string {
	switch p {
	case ReplaceNone:
		return "first-fit"
	case ReplaceFrequency:
		return "frequency"
	}
	return "unknown"
}

// Fixed tuning of CoreTime's estimators and monitor.
const (
	// missEWMAAlpha is the smoothing factor for the per-object miss
	// estimate (new = alpha*sample + (1-alpha)*old).
	missEWMAAlpha = 0.25

	// budgetFraction scales each core's packable capacity
	// (L2 + L3 share). Less than 1 leaves room for stacks, locks, and
	// code, which also occupy the caches.
	budgetFraction = 0.90

	// maxMovesPerRebalance bounds how many objects one monitor pass may
	// move, limiting placement churn.
	maxMovesPerRebalance = 8

	// idleFracLow marks a core overloaded when its idle fraction over
	// the last window is below this value; idleFracHigh marks a core a
	// migration target when above it (§4: "If a core is rarely idle or
	// often loads from DRAM ... move a portion of the objects ... to the
	// cache of a core that has more idle cycles").
	idleFracLow  = 0.02
	idleFracHigh = 0.20
)

// Options tune CoreTime. DefaultOptions matches the behaviour described in
// the paper; the extensions (§6) are off unless enabled.
type Options struct {
	// MissThreshold is the smoothed per-operation cache-miss count above
	// which an object is considered "expensive to fetch" and becomes a
	// candidate for placement (§4: "ct_start automatically adds an
	// object to the table if the object is expensive to fetch").
	MissThreshold float64

	// RebalanceInterval is the period of the monitor that repairs
	// placement pathologies (§4: "detect performance pathologies at
	// run-time and ... improve performance by rearranging objects").
	// Zero disables the monitor.
	RebalanceInterval sim.Cycles

	// DecayWindow unplaces objects not operated on for this long, so a
	// shrinking working set releases cache budget (the oscillating
	// workload, Fig. 4b). Zero disables decay.
	DecayWindow sim.Cycles

	// Replacement selects the over-capacity policy (§6.2 extension).
	Replacement ReplacementPolicy

	// EnableClustering makes PlaceTogether hints pack co-used objects
	// into the same cache (§6.2 extension).
	EnableClustering bool

	// EnableReplication allows hot read-only objects to be replicated,
	// one copy per chip, instead of funneling every operation to a
	// single core (§6.2 extension).
	EnableReplication bool

	// ReplicateMinOps is the number of read-only operations an object
	// must have received before it is considered for replication.
	ReplicateMinOps uint64

	// ReplicateReadRatio is the minimum fraction of read-only operations
	// for an object to stay replicated; a write always collapses it.
	ReplicateReadRatio float64

	// UnplaceDRAMFrac controls when the monitor judges a placement
	// ineffective: a placed object whose operations still load more than
	// this fraction of the object's lines from DRAM is not fitting on
	// chip, so migrating to it wastes the migration. The monitor
	// unplaces it and suppresses re-placement for a cooldown. Zero
	// disables the check.
	UnplaceDRAMFrac float64

	// Tracer, when non-nil, receives a typed event for every scheduling
	// decision (placements, migrations, monitor actions). Nil costs
	// nothing.
	Tracer *trace.Tracer
}

// DefaultOptions returns the configuration used for the paper reproduction
// benchmarks.
func DefaultOptions() Options {
	return Options{
		MissThreshold:      8,
		RebalanceInterval:  2_000_000, // 1 ms at 2 GHz
		DecayWindow:        8_000_000, // 4 ms at 2 GHz
		UnplaceDRAMFrac:    0.20,
		Replacement:        ReplaceNone,
		ReplicateMinOps:    64,
		ReplicateReadRatio: 0.95,
	}
}
