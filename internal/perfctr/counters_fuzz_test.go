package perfctr

import (
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
)

// numFields is the number of event counters in a Counters; the reference
// below treats a Counters as that many independent uint64 lanes.
var numFields = reflect.TypeFor[Counters]().NumField()

// field returns c's i'th counter, the reference model's view of it.
func field(c *Counters, i int) uint64 { return reflect.ValueOf(c).Elem().Field(i).Uint() }

// setField sets c's i'th counter.
func setField(c *Counters, i int, v uint64) { reflect.ValueOf(c).Elem().Field(i).SetUint(v) }

// fieldIndex returns the index of the counter named name.
func fieldIndex(tb testing.TB, name string) int {
	f, ok := reflect.TypeFor[Counters]().FieldByName(name)
	if !ok {
		tb.Fatalf("Counters has no field %s", name)
	}
	return f.Index[0]
}

// counterEvent encodes one FuzzCounters record: core's counter named
// name reads before at the first snapshot and before+delta (mod 2^64) at
// the second.
func counterEvent(tb testing.TB, core int, name string, before, delta uint64) []byte {
	rec := []byte{byte(core), byte(fieldIndex(tb, name))}
	rec = binary.LittleEndian.AppendUint64(rec, before)
	return binary.LittleEndian.AppendUint64(rec, delta)
}

// FuzzCounters checks Sub, Add and RollupGroups against modular uint64
// arithmetic on every counter, the queue cycles included. groupOf gives
// the number of cores (1 to 64) and each core's group (its byte mod 8).
// Each 18-byte record of ev is a core, a counter index, and two
// little-endian uint64s: the counter's value at a first snapshot and the
// events counted until a second, which may wrap past 2^64. Properties:
//
//   - each field of after.Sub(before) and before.Add(after) is the
//     field's modular difference and sum;
//   - before.Add(after.Sub(before)) == after and x.Add(y).Sub(y) == x;
//   - RollupGroups of the per-core deltas equals the delta of the
//     per-group rollups, and each group's field is the modular sum of its
//     cores' deltas.
func FuzzCounters(f *testing.F) {
	dq, lq := "DRAMQueueCycles", "LinkQueueCycles"
	// Round trip of a mixed counter file whose values share one source.
	a, b := uint64(0xdeadbeef), uint64(0x12345678)
	f.Add([]byte{0}, slices.Concat(
		counterEvent(f, 0, "Loads", a, b),
		counterEvent(f, 0, "L2Miss", a/2, b/2),
		counterEvent(f, 0, "DRAMLoads", a/3, b/3),
		counterEvent(f, 0, "IdleCycles", 2*a, 2*b),
		counterEvent(f, 0, "MigrationsIn", a%7, b%7)))
	// The bandwidth-stall counters ride Sub/Add like every other field.
	f.Add([]byte{0}, slices.Concat(
		counterEvent(f, 0, dq, 100, 7000),
		counterEvent(f, 0, lq, 40, 123),
		counterEvent(f, 0, "BusyCycles", 1, 1<<40)))
	// A counter that wraps past 2^64 between snapshots still yields the
	// true event count: the wraparound-safe delta real PMU readers use.
	f.Add([]byte{0}, slices.Concat(
		counterEvent(f, 0, dq, ^uint64(0)-5, 10),
		counterEvent(f, 0, lq, ^uint64(0), 3)))
	// Three cores on two groups: rollup of deltas is delta of rollups.
	f.Add([]byte{0, 1, 0}, slices.Concat(
		counterEvent(f, 0, dq, 5, 6),
		counterEvent(f, 1, dq, 7, 0),
		counterEvent(f, 2, lq, 2, 7),
		counterEvent(f, 2, "Evictions", ^uint64(0)-1, ^uint64(0))))
	f.Fuzz(func(t *testing.T, groupOf []byte, ev []byte) {
		if len(groupOf) == 0 {
			groupOf = []byte{0}
		}
		groupOf = groupOf[:min(len(groupOf), 64)]
		n := len(groupOf)
		groups := make([]int, n)
		ngroups := 0
		for i, g := range groupOf {
			groups[i] = int(g % 8)
			ngroups = max(ngroups, groups[i]+1)
		}
		before := make([]Counters, n)
		after := make([]Counters, n)
		for ; len(ev) >= 18; ev = ev[18:] {
			c, i := int(ev[0])%n, int(ev[1])%numFields
			v := binary.LittleEndian.Uint64(ev[2:])
			setField(&before[c], i, v)
			setField(&after[c], i, v+binary.LittleEndian.Uint64(ev[10:]))
		}

		deltas := make([]Counters, n)
		for c := range n {
			d := after[c].Sub(before[c])
			s := before[c].Add(after[c])
			for i := range numFields {
				bi, ai := field(&before[c], i), field(&after[c], i)
				if got := field(&d, i); got != ai-bi {
					t.Fatalf("core %d field %d: Sub = %d, want %d", c, i, got, ai-bi)
				}
				if got := field(&s, i); got != ai+bi {
					t.Fatalf("core %d field %d: Add = %d, want %d", c, i, got, ai+bi)
				}
			}
			if got := before[c].Add(d); got != after[c] {
				t.Fatalf("core %d: before.Add(after.Sub(before)) = %+v, want %+v", c, got, after[c])
			}
			if got := before[c].Add(after[c]).Sub(after[c]); got != before[c] {
				t.Fatalf("core %d: x.Add(y).Sub(y) = %+v, want %+v", c, got, before[c])
			}
			deltas[c] = d
		}

		// Stale scratch in dst must not survive the rollup.
		viaDeltas := make([]Counters, ngroups)
		for g := range viaDeltas {
			viaDeltas[g] = after[0]
		}
		viaDeltas = RollupGroups(viaDeltas, deltas, groups)
		ra := RollupGroups(make([]Counters, ngroups), before, groups)
		rb := RollupGroups(make([]Counters, ngroups), after, groups)
		for g := range ngroups {
			if want := rb[g].Sub(ra[g]); viaDeltas[g] != want {
				t.Fatalf("group %d: rollup of deltas %+v, delta of rollups %+v", g, viaDeltas[g], want)
			}
			for i := range numFields {
				var want uint64
				for c := range n {
					if groups[c] == g {
						want += field(&deltas[c], i)
					}
				}
				if got := field(&viaDeltas[g], i); got != want {
					t.Fatalf("group %d field %d: rollup = %d, want %d", g, i, got, want)
				}
			}
		}
	})
}
