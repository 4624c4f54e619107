package core

import (
	"sort"

	"repro/internal/trace"
)

// This file implements the paper's cache-packing algorithm (§4):
//
//	"CoreTime uses a greedy first fit 'cache packing' algorithm to decide
//	 what core to assign an object to. ... The cache packing algorithm
//	 works by assigning each object that is expensive to fetch to a cache
//	 with free space. The algorithm executes in Θ(n log n) time, where n
//	 is the number of objects."
//
// Two entry points share the fitting logic:
//
//   - place(oi) is the online path taken the first time an object crosses
//     the miss threshold: the object goes to the cache with the most free
//     space, spreading both bytes and the operations that follow them.
//   - PackAll re-runs the full greedy algorithm (sort by descending
//     benefit, then first fit) over every known expensive object; the
//     monitor uses it after bulk unplacements.

// place assigns oi to a cache, honoring clustering and the replacement
// policy. It reports success.
func (rt *Runtime) place(oi *objInfo) bool {
	if oi.placed {
		return true
	}
	size := oi.bytes()
	if size == 0 || size > rt.budget {
		rt.stats.Rejections++
		return false
	}

	// Clustering: if a clustered sibling is already placed, try its core
	// first so co-used objects share a cache (§6.2).
	if rt.opts.EnableClustering && oi.cluster != 0 {
		if c, ok := rt.clusterCore(oi.cluster); ok && rt.fits(oi, c) {
			rt.assign(oi, c)
			return true
		}
	}

	if c, ok := rt.coreWithSpace(oi, size); ok {
		rt.assign(oi, c)
		return true
	}

	// No free space anywhere: apply the replacement policy.
	if rt.opts.Replacement == ReplaceFrequency && rt.evictColderThan(oi) {
		if c, ok := rt.coreWithSpace(oi, size); ok {
			rt.assign(oi, c)
			return true
		}
	}
	rt.stats.Rejections++
	return false
}

// coreWithSpace returns the core with the most free budget that can hold
// size bytes for oi's process, or ok=false when none fits.
func (rt *Runtime) coreWithSpace(oi *objInfo, size int64) (int, bool) {
	best, bestFree := -1, int64(-1)
	for c := range rt.coreLoad {
		if !rt.fits(oi, c) {
			continue
		}
		free := rt.budget - rt.coreLoad[c]
		if free > bestFree {
			best, bestFree = c, free
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// fits reports whether oi can be added to core without exceeding the core
// budget or oi's process share.
func (rt *Runtime) fits(oi *objInfo, core int) bool {
	size := oi.bytes()
	if rt.coreLoad[core]+size > rt.budget {
		return false
	}
	if rt.procWeights != nil {
		if rt.processLoad(oi.process, core)+size > rt.processBudget(oi.process) {
			return false
		}
	}
	return true
}

// clusterCore returns the core where cluster id is already placed. A
// cluster split across cores answers with the core of its placed member
// at the lowest base address, never by map iteration order.
func (rt *Runtime) clusterCore(id int) (int, bool) {
	var first *objInfo
	for _, oi := range rt.objs {
		if oi.cluster == id && oi.placed && (first == nil || oi.obj.Base < first.obj.Base) {
			first = oi
		}
	}
	if first == nil {
		return 0, false
	}
	return first.core, true
}

// assign records oi → core and updates the load accounting.
func (rt *Runtime) assign(oi *objInfo, core int) {
	oi.placed = true
	oi.core = core
	oi.placedOps = 0
	rt.coreLoad[core] += oi.bytes()
	rt.stats.Placements++
	rt.opts.Tracer.Emit(trace.Event{At: rt.sys.Engine().Now(), Kind: trace.EvPlace,
		Subject: uint64(oi.obj.Base), Name: oi.obj.Name, Arg1: int64(core)})
}

// unplace removes oi from its core (and any replicas).
func (rt *Runtime) unplace(oi *objInfo) { rt.unplaceReason(oi, 0) }

// unplaceReason is unplace with a trace annotation: reason 0 = decay or
// administrative, non-zero = placement judged DRAM-ineffective.
func (rt *Runtime) unplaceReason(oi *objInfo, reason int64) {
	if len(oi.replicas) > 0 {
		rt.collapseReplicas(oi)
	}
	if !oi.placed {
		return
	}
	rt.coreLoad[oi.core] -= oi.bytes()
	oi.placed = false
	rt.stats.Unplacements++
	rt.opts.Tracer.Emit(trace.Event{At: rt.sys.Engine().Now(), Kind: trace.EvUnplace,
		Subject: uint64(oi.obj.Base), Name: oi.obj.Name, Arg1: int64(oi.core), Arg2: reason})
}

// move reassigns a placed object to another core.
func (rt *Runtime) move(oi *objInfo, to int) {
	if !oi.placed || oi.core == to {
		return
	}
	from := oi.core
	rt.coreLoad[from] -= oi.bytes()
	rt.coreLoad[to] += oi.bytes()
	oi.core = to
	rt.stats.ObjectsMoved++
	rt.opts.Tracer.Emit(trace.Event{At: rt.sys.Engine().Now(), Kind: trace.EvMove,
		Subject: uint64(oi.obj.Base), Name: oi.obj.Name, Arg1: int64(from), Arg2: int64(to)})
}

// opRate is the packer's benefit estimate: recent operations weighted by
// how much each one misses. Hotter and missier objects pack first.
func (oi *objInfo) opRate() float64 {
	return float64(oi.windowOps+1) * (oi.missEWMA + 1)
}

// evictColderThan removes the least-beneficial placed object provided it
// is strictly colder than oi (with head-room so two similar objects do not
// thrash). It reports whether anything was evicted. Equally cold objects
// tie-break on address, never on map iteration order.
func (rt *Runtime) evictColderThan(oi *objInfo) bool {
	var victim *objInfo
	for _, cand := range rt.objs {
		if !cand.placed || cand == oi {
			continue
		}
		if victim == nil || cand.opRate() < victim.opRate() ||
			cand.opRate() == victim.opRate() && cand.obj.Base < victim.obj.Base {
			victim = cand
		}
	}
	const margin = 2.0 // newcomer must be twice as beneficial
	if victim == nil || victim.opRate()*margin > oi.opRate() {
		return false
	}
	rt.unplace(victim)
	return true
}

// PackAll runs the offline greedy first-fit algorithm over every object
// currently considered expensive: objects are sorted by descending benefit
// (Θ(n log n), as the paper notes) and fitted first-fit onto cores in
// index order. Existing placements are rebuilt from scratch. The monitor
// calls this after decay frees budget; tests call it directly.
func (rt *Runtime) PackAll() {
	var candidates []*objInfo
	for _, oi := range rt.objs {
		if oi.missEWMA > rt.opts.MissThreshold || oi.placed {
			candidates = append(candidates, oi)
		}
	}
	// Sort before unplacing, so the unplace trace events follow benefit
	// order rather than map iteration order.
	sort.Slice(candidates, func(i, j int) bool {
		ri, rj := candidates[i].opRate(), candidates[j].opRate()
		if ri != rj {
			return ri > rj
		}
		// Deterministic tie-break on address.
		return candidates[i].obj.Base < candidates[j].obj.Base
	})
	for _, oi := range candidates {
		rt.unplace(oi)
	}
	// Undo the churn accounting: a repack is one logical event, and
	// tests assert on Placements/Unplacements for the online path.
	rt.stats.Unplacements -= uint64(len(candidates))

	ncores := len(rt.coreLoad)
	next := 0 // rotate first-fit start so equal-rate objects spread
	for _, oi := range candidates {
		if oi.bytes() > rt.budget {
			rt.stats.Rejections++
			continue
		}
		if rt.opts.EnableClustering && oi.cluster != 0 {
			if c, ok := rt.clusterCore(oi.cluster); ok && rt.fits(oi, c) {
				rt.assign(oi, c)
				rt.stats.Placements--
				continue
			}
		}
		placedAt := -1
		for off := 0; off < ncores; off++ {
			c := (next + off) % ncores
			if rt.fits(oi, c) {
				placedAt = c
				break
			}
		}
		if placedAt < 0 {
			rt.stats.Rejections++
			continue
		}
		rt.assign(oi, placedAt)
		rt.stats.Placements-- // repack is not a new placement
		next = (placedAt + 1) % ncores
	}
}
