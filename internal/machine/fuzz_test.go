package machine

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/perfctr"
	"repro/internal/sim"
	"repro/internal/topology"
)

// refLine is one line of a reference cache.
type refLine struct {
	line  cache.Line
	dirty bool
}

// refCache is a naive true-LRU cache: one list per set, least recently
// used first, each as long as its occupancy.
type refCache struct {
	sets  map[int][]refLine
	nsets int
	assoc int
}

func newRefCache(g topology.CacheGeom) *refCache {
	return &refCache{sets: make(map[int][]refLine), nsets: g.Sets(), assoc: g.Assoc}
}

func (r *refCache) find(l cache.Line) (si, i int) {
	si = int(uint64(cache.IndexOf(l)) & uint64(r.nsets-1))
	for i, w := range r.sets[si] {
		if w.line == l {
			return si, i
		}
	}
	return si, -1
}

// touch moves way i of set si to the MRU end, or-ing in dirty.
func (r *refCache) touch(si, i int, dirty bool) {
	w := r.sets[si][i]
	w.dirty = w.dirty || dirty
	r.sets[si] = append(slices.Delete(r.sets[si], i, i+1), w)
}

func (r *refCache) lookup(l cache.Line) bool {
	si, i := r.find(l)
	if i >= 0 {
		r.touch(si, i, false)
	}
	return i >= 0
}

func (r *refCache) insert(l cache.Line, dirty bool) (victim refLine, evicted bool) {
	si, i := r.find(l)
	if i >= 0 {
		r.touch(si, i, dirty)
		return refLine{}, false
	}
	set := r.sets[si]
	if len(set) == r.assoc {
		victim, evicted = set[0], true
		set = slices.Delete(set, 0, 1)
	}
	r.sets[si] = append(set, refLine{l, dirty})
	return victim, evicted
}

func (r *refCache) remove(l cache.Line) (wasDirty, removed bool) {
	si, i := r.find(l)
	if i < 0 {
		return false, false
	}
	wasDirty = r.sets[si][i].dirty
	r.sets[si] = slices.Delete(r.sets[si], i, i+1)
	return wasDirty, true
}

func (r *refCache) markDirty(l cache.Line) {
	if si, i := r.find(l); i >= 0 {
		r.sets[si][i].dirty = true
	}
}

func (r *refCache) lines() []cache.Line {
	var out []cache.Line
	for _, set := range r.sets {
		for _, w := range set {
			out = append(out, w.line)
		}
	}
	slices.Sort(out)
	return out
}

// refDir is a map directory: each tracked line's holder nodes and its
// dirty owner.
type refDir struct {
	holders map[cache.Line]map[int]bool
	owner   map[cache.Line]int
}

func (d *refDir) add(l cache.Line, n int) {
	if d.holders[l] == nil {
		d.holders[l] = make(map[int]bool)
	}
	d.holders[l][n] = true
}

func (d *refDir) remove(l cache.Line, n int) {
	delete(d.holders[l], n)
	if o, ok := d.owner[l]; ok && o == n {
		delete(d.owner, l)
	}
	if len(d.holders[l]) == 0 {
		delete(d.holders, l)
	}
}

func (d *refDir) move(l cache.Line, from, to int) {
	if !d.holders[l][from] {
		d.add(l, to)
		return
	}
	delete(d.holders[l], from)
	d.holders[l][to] = true
	if o, ok := d.owner[l]; ok && o == from {
		d.owner[l] = to
	}
}

// sorted returns l's holders in ascending order.
func (d *refDir) sorted(l cache.Line) []int {
	var out []int
	for n := range d.holders[l] {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// refMachine is the reference hierarchy FuzzMachine steps beside Machine:
// the same latencies and bandwidth meters over refCache levels and a
// refDir, written as the straight-line walk the model describes, with no
// directory gates or hoisted set indexes.
type refMachine struct {
	cfg        topology.Config
	l1, l2, l3 []*refCache
	dir        refDir
	ctr        []perfctr.Counters
	dram, link []bwMeter
}

func newRefMachine(cfg topology.Config) *refMachine {
	r := &refMachine{
		cfg: cfg,
		dir: refDir{holders: make(map[cache.Line]map[int]bool), owner: make(map[cache.Line]int)},
		ctr: make([]perfctr.Counters, cfg.NumCores()),
	}
	for i := 0; i < cfg.NumCores(); i++ {
		r.l1 = append(r.l1, newRefCache(cfg.L1))
		r.l2 = append(r.l2, newRefCache(cfg.L2))
	}
	for i := 0; i < cfg.Chips; i++ {
		r.l3 = append(r.l3, newRefCache(cfg.L3))
		r.dram = append(r.dram, newBWMeter(cfg.Lat.DRAMServiceInterval))
		if cfg.Lat.LinkServiceInterval > 0 && cfg.Chips > 1 {
			r.link = append(r.link, newBWMeter(cfg.Lat.LinkServiceInterval))
		}
	}
	return r
}

func (r *refMachine) l3Node(chip int) int { return r.cfg.NumCores() + chip }

func (r *refMachine) chipOfNode(n int) int {
	if n < r.cfg.NumCores() {
		return r.cfg.ChipOf(n)
	}
	return n - r.cfg.NumCores()
}

// access is one core touching one line at time at; it returns the latency.
func (r *refMachine) access(core int, l cache.Line, write bool, at sim.Time) sim.Cycles {
	c := &r.ctr[core]
	if write {
		c.Stores++
	} else {
		c.Loads++
	}
	lat := r.walk(core, l, at, c)
	if write {
		lat += r.acquire(core, l, c)
	}
	c.StallCycles += uint64(lat)
	return lat
}

// walk finds the line: L1, L2, the chip's L3, then the nearest holder or
// the home DRAM bank.
func (r *refMachine) walk(core int, l cache.Line, at sim.Time, c *perfctr.Counters) sim.Cycles {
	lat := r.cfg.Lat
	if r.l1[core].lookup(l) {
		r.l2[core].lookup(l)
		return lat.L1Hit
	}
	c.L1Miss++
	if r.l2[core].lookup(l) {
		c.L2Loads++
		r.l1[core].insert(l, false)
		return lat.L2Hit
	}
	c.L2Miss++
	chip := r.cfg.ChipOf(core)
	if dirty, hit := r.l3[chip].remove(l); hit {
		r.dir.remove(l, r.l3Node(chip))
		c.L3Loads++
		r.install(core, l, dirty, c)
		return lat.L3Hit
	}
	c.L3Miss++
	var cycles sim.Cycles
	if holders := r.dir.sorted(l); len(holders) > 0 {
		src, best := 0, -1
		for _, n := range holders {
			if d := r.cfg.HopDistance(chip, r.chipOfNode(n)); best < 0 || d < best {
				src, best = r.chipOfNode(n), d
			}
		}
		cycles = r.cfg.RemoteCacheLatency(chip, src)
		c.RemoteFetches++
		if r.link != nil && src != chip {
			q := r.link[src].reserve(at)
			cycles += q
			c.LinkQueueCycles += uint64(q)
		}
	} else {
		home := int(uint64(l) % uint64(r.cfg.Chips))
		q := r.dram[home].reserve(at)
		cycles = r.cfg.DRAMLatency(chip, home) + q
		c.DRAMLoads++
		c.DRAMQueueCycles += uint64(q)
		if r.link != nil && home != chip {
			lq := r.link[home].reserve(at)
			cycles += lq
			c.LinkQueueCycles += uint64(lq)
		}
	}
	r.install(core, l, false, c)
	return cycles
}

// install puts a fetched line into core's L2 and L1; an L2 victim leaves
// L1 too (inclusion) and falls into the chip's L3, whose own victim goes
// back to DRAM.
func (r *refMachine) install(core int, l cache.Line, dirty bool, c *perfctr.Counters) {
	chip := r.cfg.ChipOf(core)
	if v, evicted := r.l2[core].insert(l, dirty); evicted {
		c.Evictions++
		r.l1[core].remove(v.line)
		if w, evicted := r.l3[chip].insert(v.line, v.dirty); evicted {
			c.Evictions++
			r.dir.remove(w.line, r.l3Node(chip))
		}
		r.dir.move(v.line, core, r.l3Node(chip))
	}
	r.dir.add(l, core)
	r.l1[core].insert(l, false)
}

// acquire makes core the sole holder and dirty owner of l.
func (r *refMachine) acquire(core int, l cache.Line, c *perfctr.Counters) sim.Cycles {
	var extra sim.Cycles
	for _, n := range r.dir.sorted(l) {
		if n == core {
			continue
		}
		extra = r.cfg.Lat.InvalidateCost
		c.Invalidations++
		if n < r.cfg.NumCores() {
			r.l1[n].remove(l)
			r.l2[n].remove(l)
		} else {
			r.l3[n-r.cfg.NumCores()].remove(l)
		}
	}
	r.dir.holders[l] = map[int]bool{core: true}
	r.dir.owner[l] = core
	r.l1[core].markDirty(l)
	r.l2[core].markDirty(l)
	return extra
}

// fuzzMachinePages are the pages FuzzMachine draws lines from. Lines at
// one offset of different pages share every modular-indexed set, so a
// short input overfills the tiny caches; pages 0 and 1 are adjacent, so
// a multi-line access can cross a page boundary.
var fuzzMachinePages = [...]cache.Line{0, 1, 2, 3, 4, 5, 6, 7, 64, 65, 1000, 1001, 4096, 12345, 99999, 100000}

// fuzzMachineOffsets are the in-page offsets FuzzMachine uses: the same
// sets again and again, plus the last lines of a page.
var fuzzMachineOffsets = [...]cache.Line{0, 0, 0, 0, 1, 1, 8, 8, 32, 32, 33, 40, 62, 63, 63, 63}

// wideFuzzConfig is a 64-core, 8-socket NUMA machine (72 directory nodes,
// so two holder words) with caches small enough to overflow in a short
// input; its 128-set L3 hashes page bits.
func wideFuzzConfig() topology.Config {
	cfg := topology.NUMA64()
	cfg.L1 = topology.CacheGeom{Size: 1 << 10, LineSize: 64, Assoc: 2}
	cfg.L2 = topology.CacheGeom{Size: 8 << 10, LineSize: 64, Assoc: 4}
	cfg.L3 = topology.CacheGeom{Size: 16 << 10, LineSize: 64, Assoc: 2}
	return cfg
}

// equalSetsFuzzConfig is Tiny8 with an L2 of as many sets as its L1 (8
// each), the shape AMD16 and the NUMA presets have at full size: every
// L1 set then shares its L2 set with no other L1 set, so the L2 recency
// order is the L1's plus the lines L1 has dropped, and the machine keeps
// its L1s as prefix counts of the L2 sets.
func equalSetsFuzzConfig() topology.Config {
	cfg := topology.Tiny8()
	cfg.L2 = topology.CacheGeom{Size: 4 << 10, LineSize: 64, Assoc: 8}
	return cfg
}

// machineOpBytes is the size of one encoded operation: core, line
// selector (page in the high nibble, offset in the low), flags (bit 0
// write, bit 3 single-line Access, bits 1-2 line count), time advance.
// FuzzMachine reads at most machineMaxOps operations of an input: every
// access runs CheckInvariants, so a longer input only slows the
// fuzzer's minimization down.
const (
	machineOpBytes = 4
	machineMaxOps  = 256
)

// FuzzMachine steps a Machine and refMachine through the same accesses,
// on Tiny8 or on wideFuzzConfig (see stepMachine). Both have more L2 than
// L1 sets, so the machine keeps L1 caches: this is the fuzzer of that
// representation. The seed corpus lives in testdata/fuzz/FuzzMachine.
func FuzzMachine(f *testing.F) {
	// Nine lines through core 0's one L2 set push the first into the L3,
	// which the tenth access hits; core 2 then reads it from another chip
	// and core 0 stores to it.
	evictToL3 := []byte{}
	for p := byte(0); p < 9; p++ {
		evictToL3 = append(evictToL3, 0, p<<4, 0, 1)
	}
	evictToL3 = append(evictToL3, 0, 0, 0, 1, 2, 0x10, 0, 1, 0, 0x10, 1, 1)
	f.Add(false, evictToL3)
	f.Add(true, evictToL3)
	f.Add(true, []byte{0, 0x0D, 4, 200, 9, 0x0D, 1, 3, 40, 0x1D, 5, 0, 0, 0x0D, 3, 64})
	f.Fuzz(func(t *testing.T, wide bool, ops []byte) {
		cfg := topology.Tiny8()
		if wide {
			cfg = wideFuzzConfig()
		}
		stepMachine(t, cfg, ops)
	})
}

// FuzzMachineEqualSets is FuzzMachine on equalSetsFuzzConfig, the
// geometry under which the machine keeps its L1s as prefix counts of the
// L2 sets; the reference keeps a true-LRU L1 of its own and refreshes the
// L2 on every L1 hit, so it is the oracle for both. The committed corpus
// in testdata/fuzz/FuzzMachineEqualSets pins the count's shrinking: core
// 2, on another chip, stores to core 0's L1 lines of one set, the most
// recent first, and core 0 re-reads them, once also reading between the
// two stores a line just below the L1's remaining way.
func FuzzMachineEqualSets(f *testing.F) {
	// Core 0 loads lines A and B of one L1 set, then hits A on the L1's
	// less recent way, which must move A to the top of its L2 set. Seven
	// more lines of the set then fill the 8-way L2 set and evict one
	// line: B if the L2 order is right, A if the hit skipped the refresh.
	// A's next load hits the L2, and B's store the L3.
	lruHitThenEvict := []byte{0, 0x00, 0, 1, 0, 0x10, 0, 1, 0, 0x00, 8, 1}
	for p := byte(2); p < 9; p++ {
		lruHitThenEvict = append(lruHitThenEvict, 0, p<<4, 0, 1)
	}
	lruHitThenEvict = append(lruHitThenEvict, 0, 0x00, 0, 1, 0, 0x10, 1, 1)
	f.Add(lruHitThenEvict)
	f.Fuzz(func(t *testing.T, ops []byte) {
		stepMachine(t, equalSetsFuzzConfig(), ops)
	})
}

// stepMachine steps a Machine and refMachine on cfg through the accesses
// ops encodes, and after every access compares the latency and every
// core's counters and runs CheckInvariants; at the end it compares every
// cache's contents and every touched line's holders.
func stepMachine(t *testing.T, cfg topology.Config, ops []byte) {
	m, err := New(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefMachine(cfg)
	ops = ops[:min(len(ops), machineMaxOps*machineOpBytes)]
	touched := make(map[cache.Line]bool)
	var at sim.Time
	for step := 0; len(ops) >= machineOpBytes; ops, step = ops[machineOpBytes:], step+1 {
		core := int(ops[0]) % cfg.NumCores()
		l := fuzzMachinePages[ops[1]>>4]*cache.PageLines + fuzzMachineOffsets[ops[1]&15]
		write := ops[2]&1 != 0
		n := 1 + int(ops[2]>>1&3)%3
		at += sim.Time(ops[3]&0x3F) << (4 * (ops[3] >> 6))
		addr := mem.Addr(l) * mem.Addr(cfg.L1.LineSize)
		var got sim.Cycles
		if n == 1 && ops[2]&8 != 0 {
			got = m.Access(core, addr, write, at)
		} else {
			got = m.AccessRange(core, addr, n*cfg.L1.LineSize, write, at)
		}
		var want sim.Cycles
		for i := 0; i < n; i++ {
			touched[l+cache.Line(i)] = true
			want += ref.access(core, l+cache.Line(i), write, at+want)
		}
		if got != want {
			t.Fatalf("step %d: core %d %d lines from %d write=%v at %d: latency %d, reference %d",
				step, core, n, l, write, at, got, want)
		}
		for i := range ref.ctr {
			if c := *m.Counters().Core(i); c != ref.ctr[i] {
				t.Fatalf("step %d: core %d counters\n got %+v\nwant %+v", step, i, c, ref.ctr[i])
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	compareContents(t, m, ref, touched)
}

// compareContents checks every cache's resident lines and every touched
// line's directory holders and owner against the reference.
func compareContents(t *testing.T, m *Machine, ref *refMachine, touched map[cache.Line]bool) {
	t.Helper()
	for i := range ref.l1 {
		if got, want := m.L1Lines(i), ref.l1[i].lines(); !slices.Equal(got, want) {
			t.Fatalf("core %d L1 %v, reference %v", i, got, want)
		}
		if got, want := m.L2(i).Lines(), ref.l2[i].lines(); !slices.Equal(got, want) {
			t.Fatalf("core %d L2 %v, reference %v", i, got, want)
		}
	}
	for i := range ref.l3 {
		if got, want := m.L3(i).Lines(), ref.l3[i].lines(); !slices.Equal(got, want) {
			t.Fatalf("chip %d L3 %v, reference %v", i, got, want)
		}
	}
	for l := range touched {
		var got []int
		for _, n := range m.Directory().Holders(l) {
			got = append(got, int(n))
		}
		if want := ref.dir.sorted(l); !slices.Equal(got, want) {
			t.Fatalf("line %d holders %v, reference %v", l, got, want)
		}
		want, ok := ref.dir.owner[l]
		if !ok {
			want = -1
		}
		if got := int(m.Directory().Owner(l)); got != want {
			t.Fatalf("line %d owner %d, reference %d", l, got, want)
		}
	}
}
