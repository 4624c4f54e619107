package o2

import "repro/internal/mem"

// cellArena is the per-cell arena the sweep engine threads through the
// sequential repeats of one grid cell. The first repeat builds a runtime
// and its scenario (tree, service, store) from scratch and parks them
// here with an image mark taken after the build; later repeats roll the
// runtime back to that mark instead of rebuilding — reusing the machine
// image, the event heap's backing array, and the substrate — which
// removes the dominant build-and-zero cost from every repeat after the
// first.
//
// Reuse is behavior-transparent by construction: Runtime.resetForRepeat
// restores exactly the state a fresh build would produce (see DESIGN.md
// §12 for the ownership rules), and any runner that ignores the arena
// keeps the old fresh-runtime-per-repeat behavior.
type cellArena struct {
	rt       *Runtime
	mark     mem.ImageMark
	scenario any
}

// reusable reports whether the arena holds a fully drained runtime that
// can be rolled back. A runner that left live threads or pending events
// behind would corrupt the next repeat, so such repeats rebuild from
// scratch. A run truncated by ServiceLoad.TimeLimit is drained: WebService
// closes its engine, which stops the stranded threads. Traced and
// telemetry-enabled runtimes reuse like any other: resetForRepeat clears
// the tracer ring, registry counters, and sampler series along with the
// rest of the run state.
func (ar *cellArena) reusable() bool {
	return ar != nil && ar.rt != nil &&
		ar.rt.eng.Live() == 0 && ar.rt.eng.Pending() == 0
}

// reset rolls the arena's runtime back to its post-build state under the
// next repeat's seed.
func (ar *cellArena) reset(seed uint64) {
	ar.rt.resetForRepeat(seed, ar.mark)
}

// close stops the threads a failed repeat stranded on the arena's
// runtime, so their coroutines do not leak once the arena is dropped.
func (ar *cellArena) close() {
	if ar.rt != nil && ar.rt.eng != nil {
		ar.rt.eng.Close()
	}
}

// scenarioForCell returns the cell's built scenario state of type S,
// reusing the cell's arena when possible. A reusable arena already
// holding an S is reset under the cell's seed and its state returned;
// otherwise a fresh runtime is built from the cell's machine and options
// (Cell.Scheduler authoritative, applied after Options — the precedence
// rule every scenario shares) and build constructs the state, which is
// parked in the arena, when present, along with an image mark taken
// after the build so per-run allocations above it roll back on reset.
func scenarioForCell[S any](c Cell, build func(*Runtime) (S, error)) (S, error) {
	var zero S
	if ar := c.arena; ar != nil && ar.reusable() {
		if sc, ok := ar.scenario.(S); ok {
			ar.reset(c.Seed)
			return sc, nil
		}
	}
	all := append([]Option{WithTopology(c.Machine.orDefault()), WithSeed(c.Seed)}, c.Options...)
	all = append(all, WithScheduler(c.Scheduler))
	rt, err := New(all...)
	if err != nil {
		return zero, err
	}
	sc, err := build(rt)
	if err != nil {
		return zero, err
	}
	if ar := c.arena; ar != nil {
		ar.rt, ar.scenario, ar.mark = rt, sc, rt.mach.Image().Mark()
	}
	return sc, nil
}
