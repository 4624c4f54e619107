package core

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/perfctr"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file implements CoreTime's runtime monitor (paper §4):
//
//	"CoreTime also uses hardware event counters to detect when too many
//	 operations are assigned to a core or too many objects are assigned
//	 to a cache. CoreTime tracks the number of idle cycles, loads from
//	 DRAM, and loads from the L2 cache for each core. If a core is rarely
//	 idle or often loads from DRAM, CoreTime will periodically move a
//	 portion of the objects from that core's cache to the cache of a core
//	 that has more idle cycles and rarely loads from the L2 cache."
//
// The monitor runs every Options.RebalanceInterval cycles. Each pass:
//
//  1. decays objects that have not been operated on within DecayWindow,
//     releasing their cache budget (lets a shrinking working set free
//     space — the oscillating benchmark of Fig. 4b);
//  2. reads per-core counter deltas, classifies cores as overloaded
//     (rarely idle) or spare (often idle), and moves the hottest objects
//     from overloaded cores to spare cores with room;
//  3. clears the per-window op counts.

// monitorState carries per-pass counter snapshots between invocations.
// snaps and deltas are scratch reused every pass; last persists between
// passes. All three are sized to the core count on first use.
type monitorState struct {
	last   []perfctr.Counters
	snaps  []perfctr.Counters
	deltas []perfctr.Counters

	// lastAt is the simulated time of the last accounted pass; windows
	// are measured against it rather than assuming the configured
	// interval, so a pass fired at the same cycle as its predecessor
	// (possible after an arena reset re-registers the tick) is a clean
	// no-op instead of a divide-by-zero.
	lastAt sim.Time

	// victims is scratch for the withdrawal passes (see placedWhere).
	victims []*objInfo
}

// rebalance is one monitor pass.
func (rt *Runtime) rebalance() {
	now := rt.sys.Engine().Now()

	// 1. Decay stale placements, and withdraw ineffective ones: a placed
	// object whose operations still pull a large fraction of its lines
	// from DRAM is not fitting on chip, so every migration to it is
	// wasted cost.
	if window := rt.opts.DecayWindow; window > 0 {
		for _, oi := range rt.placedWhere(func(oi *objInfo) bool { return now-oi.lastAccess > window }) {
			rt.unplace(oi)
		}
	}
	if frac := rt.opts.UnplaceDRAMFrac; frac > 0 {
		// Judge only placements old enough that the cold-start DRAM
		// loads of the placement itself have decayed out of the EWMA
		// (0.75^8 ≈ 10% residue at the default alpha).
		for _, oi := range rt.placedWhere(func(oi *objInfo) bool {
			return oi.placedOps >= 8 && oi.dramEWMA > float64(oi.bytes())/64*frac
		}) {
			rt.unplaceReason(oi, 1)
			oi.noPlaceUntil = now + 8*rt.opts.RebalanceInterval
		}
	}

	// 2. Balance operations across cores.
	rt.sys.FlushIdleAccounting()
	mon := &rt.mon
	mon.snaps = rt.mach.Counters().AppendSnapshots(mon.snaps[:0])
	// The first pass of a run has no previous snapshot to delta against
	// (len 0 rather than a nil check: Reset empties the slice but keeps
	// its backing array, and must re-arm this first-pass behavior).
	if len(mon.last) == 0 {
		mon.last = append(mon.last, mon.snaps...)
		mon.lastAt = now
		rt.endWindow()
		return
	}
	elapsed := now - mon.lastAt
	if elapsed == 0 {
		// Two firings at the same cycle (back-to-back arena resets can
		// re-register the tick on an engine whose clock has not advanced):
		// there is no window to classify, and dividing by it would poison
		// idleFrac with NaN/Inf.
		rt.endWindow()
		return
	}
	mon.lastAt = now
	mon.deltas = mon.deltas[:0]
	for i := range mon.snaps {
		mon.deltas = append(mon.deltas, mon.snaps[i].Sub(mon.last[i]))
	}
	copy(mon.last, mon.snaps)

	if moved := rt.balanceLoad(mon.deltas, elapsed); moved > 0 {
		rt.stats.Rebalances++
		rt.opts.Tracer.Emit(trace.Event{At: now, Kind: trace.EvRebalance, Arg1: int64(moved)})
	}

	// 3. Reset window statistics.
	rt.endWindow()
}

// placedWhere returns the placed objects that satisfy pred, in base-address
// order, in the monitor's scratch (valid until the next call). The
// withdrawal passes unplace from it, so their unplace trace events never
// follow map iteration order.
func (rt *Runtime) placedWhere(pred func(*objInfo) bool) []*objInfo {
	out := rt.mon.victims[:0]
	for _, oi := range rt.objs {
		if oi.placed && pred(oi) {
			out = append(out, oi)
		}
	}
	slices.SortFunc(out, func(a, b *objInfo) int { return cmp.Compare(a.obj.Base, b.obj.Base) })
	rt.mon.victims = out
	return out
}

func (rt *Runtime) endWindow() {
	for _, oi := range rt.objs {
		oi.windowOps = 0
	}
}

// coreUtil summarises one core's last window for balancing decisions.
type coreUtil struct {
	core     int
	idleFrac float64
}

// balanceLoad moves hot objects from overloaded cores to spare cores and
// returns how many objects moved. elapsed is the measured window length,
// the denominator for idle fractions.
func (rt *Runtime) balanceLoad(deltas []perfctr.Counters, elapsed sim.Time) int {
	interval := float64(elapsed)
	if interval == 0 {
		return 0
	}

	utils := make([]coreUtil, len(deltas))
	for i, d := range deltas {
		u := coreUtil{core: i}
		u.idleFrac = float64(d.IdleCycles) / interval
		if d.BusyCycles == 0 && d.IdleCycles == 0 {
			// A core that was never acquired since reset accrues neither
			// busy nor idle cycles — the exec layer only starts the idle
			// clock at a core's first use, so a core that slept through
			// the whole window (including engine dead-time fast-forwards)
			// shows zero on both accounts. It was 100% idle, not 100%
			// busy; without this it would be classified overloaded and
			// its placed objects bounced off a core nobody is using.
			u.idleFrac = 1
		}
		utils[i] = u
	}

	// Overloaded: rarely idle. Spare: often idle.
	var overloaded, spare []coreUtil
	for _, u := range utils {
		switch {
		case u.idleFrac < idleFracLow && rt.placedCount(u.core) > 1:
			overloaded = append(overloaded, u)
		case u.idleFrac > idleFracHigh:
			spare = append(spare, u)
		}
	}
	if len(overloaded) == 0 || len(spare) == 0 {
		return 0
	}
	// Most-overloaded first; most-idle targets first.
	sort.Slice(overloaded, func(i, j int) bool {
		return overloaded[i].idleFrac < overloaded[j].idleFrac
	})
	sort.Slice(spare, func(i, j int) bool {
		return spare[i].idleFrac > spare[j].idleFrac
	})

	moved := 0
	si := 0
	for _, o := range overloaded {
		if moved >= maxMovesPerRebalance || si >= len(spare) {
			break
		}
		// Move half of the overloaded core's objects, hottest first:
		// the hot objects are why threads pile onto the core.
		objs := rt.placedOn(o.core)
		if len(objs) < 2 {
			continue
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i].opRate() > objs[j].opRate() })
		toMove := len(objs) / 2
		for _, oi := range objs[:toMove] {
			if moved >= maxMovesPerRebalance || si >= len(spare) {
				break
			}
			dst := spare[si].core
			if !rt.fits(oi, dst) {
				si++
				if si >= len(spare) {
					break
				}
				dst = spare[si].core
				if !rt.fits(oi, dst) {
					continue
				}
			}
			rt.move(oi, dst)
			moved++
			si++ // spread across spare cores round-robin
			if si >= len(spare) {
				si = 0
			}
		}
	}
	return moved
}

// placedCount returns how many objects are assigned to core.
func (rt *Runtime) placedCount(core int) int {
	n := 0
	for _, oi := range rt.objs {
		if oi.placed && oi.core == core {
			n++
		}
	}
	return n
}

// placedOn returns the objects assigned to core.
func (rt *Runtime) placedOn(core int) []*objInfo {
	var out []*objInfo
	for _, oi := range rt.objs {
		if oi.placed && oi.core == core && len(oi.replicas) == 0 {
			out = append(out, oi)
		}
	}
	// Deterministic order before sorting by rate.
	sort.Slice(out, func(i, j int) bool { return out[i].obj.Base < out[j].obj.Base })
	return out
}
