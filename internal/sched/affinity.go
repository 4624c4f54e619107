package sched

import (
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/stats"
)

// HashAffinity pins every object to a fixed core chosen by hashing its
// address, and migrates threads there for the duration of each operation.
// It is the static middle ground between the two schedulers the paper
// compares: like CoreTime it serializes operations on one object onto one
// core (so the object's lines stay in that core's caches), but the
// assignment is a pure hash — no monitoring, no cache-budget packing, no
// rebalancing, and no awareness of object size or popularity. Service
// scenarios use it as the "consistent-hashing placement" baseline a real
// sharded store would deploy.
//
// Operations nest the same way CoreTime's do: the scheduler tracks each
// thread's operation depth, and only the outermost OpEnd is a boundary.
// Like CoreTime, a thread continues from the object's core after the
// outermost operation ends rather than paying a migration back.
type HashAffinity struct {
	cores int
	depth map[int]int // thread id -> open operation depth
}

// NewHashAffinity returns an annotator distributing objects over cores
// many cores. It panics when cores <= 0.
func NewHashAffinity(cores int) *HashAffinity {
	if cores <= 0 {
		panic("sched: NewHashAffinity needs a positive core count")
	}
	return &HashAffinity{cores: cores, depth: make(map[int]int)}
}

// CoreOf returns the core the object at addr is pinned to: a SplitMix64
// avalanche of the address modulo the core count, so object placements are
// deterministic, uniform, and independent of operation order.
func (h *HashAffinity) CoreOf(addr mem.Addr) int {
	return int(stats.DeriveSeed(uint64(addr)) % uint64(h.cores))
}

// OpStart migrates the thread to the object's core (paying the real
// migration cost) unless it is already there or already inside an
// operation — nested operations run wherever the outermost one placed the
// thread, matching the scoped-operation semantics of the o2 façade.
func (h *HashAffinity) OpStart(t *exec.Thread, addr mem.Addr) {
	d := h.depth[t.ID()]
	h.depth[t.ID()] = d + 1
	if d > 0 {
		return
	}
	if dst := h.CoreOf(addr); t.Core() != dst {
		t.MigrateTo(dst)
	}
}

// OpEnd closes the innermost operation; the thread stays where it is.
func (h *HashAffinity) OpEnd(t *exec.Thread) {
	if d := h.depth[t.ID()]; d > 1 {
		h.depth[t.ID()] = d - 1
	} else {
		delete(h.depth, t.ID())
	}
}

// Name implements Annotator.
func (h *HashAffinity) Name() string { return "hash-affinity" }
