// Package machine composes the simulated multicore: per-core L1/L2 caches,
// per-chip victim L3s, a MOESI-style coherence directory, distance-dependent
// interconnect latencies, bandwidth-limited DRAM controllers, and per-core
// event counters.
//
// The central entry point is Access (and the Load/Store/AccessRange
// wrappers): given a core, an address range, and the current simulated
// time, it walks the hierarchy exactly as the paper's AMD machine would —
// L1, L2, chip L3, then the nearest remote cache or a DRAM bank — updates
// cache and directory state, increments the event counters CoreTime's
// monitor reads, and returns the access latency in cycles. Callers (the
// execution substrate in internal/exec) advance simulated time by the
// returned amount.
//
// Modeling choices that matter to the paper's results:
//
//   - The L3 is an exclusive victim cache (as on the paper's Opterons):
//     lines live in L3 only after eviction from an L2. This is what makes
//     the paper's "16 MB total on-chip = 4×2MB L3 + 16×512KB L2" capacity
//     arithmetic hold.
//   - DRAM controllers (one per chip, lines interleaved across chips by
//     address) serve at most one line per DRAMServiceInterval cycles;
//     excess demand queues. Saturating off-chip bandwidth is the failure
//     mode O2 scheduling exists to avoid, so it must be first-class.
//   - Coherence is MOESI-like: a dirty line can remain "owned" by one core
//     while read-shared by others; a write invalidates all other copies.
//
// The hierarchy is inclusive and true-LRU at every level. When the L1 has
// as many sets as the L2 and fewer ways, as on AMD16 and every NUMA
// preset, each L1 set is always the most recent ways of the L2 set with
// its number, so the machine keeps one count per L2 set in place of the
// L1's tags (usePrefixL1). Other geometries (Tiny8, Small) keep an L1
// cache beside the L2. New chooses once, from the topology alone.
package machine

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/perfctr"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Machine is the simulated multicore system.
type Machine struct {
	cfg topology.Config
	img *mem.Image
	l1  []*cache.Cache // per core; nil when l1Prefix stands in for the L1s
	l2  []*cache.Cache // per core
	l3  []*cache.Cache // per chip
	dir *coherence.Directory
	ctr *perfctr.Set

	// l1Prefix replaces the L1 caches when the L1 has as many sets as the
	// L2 and fewer ways (usePrefixL1): core c's L1 set s is then exactly
	// the l1Prefix[c*l2Sets+s] most recently used ways of its L2 set s.
	// nil on the other geometries, which keep l1.
	l1Prefix []uint8
	l2Sets   int
	l2Mask   uint64 // l2Sets-1
	l1Assoc  uint8

	// dram[chip] meters the chip's memory-controller bandwidth.
	dram []bwMeter
	// link[chip] meters the chip's interconnect port: line transfers that
	// leave the chip (remote-cache sourcing, remote-home DRAM fills)
	// queue here when cross-socket traffic exceeds LinkServiceInterval.
	// nil when the topology does not model interconnect bandwidth.
	link []bwMeter

	lineSize int

	// Derived lookup tables, computed once at construction. topology.Config
	// methods take the (large) config by value, so calling them per line
	// access copies the whole struct; the hot paths read these instead.
	ncores    int
	chipOf    []int          // core -> chip
	hop       [][]int        // chip × chip Manhattan distance
	remoteLat [][]sim.Cycles // chip × chip remote-cache fetch latency
	dramLat   [][]sim.Cycles // chip × chip raw DRAM latency

	// near[chip] lists the directory's nodes by hop distance from chip,
	// nearest first: for each distance, one mask per holder word that has
	// a node at it, words ascending. nearestHolderChip reads a line's
	// holder words against it in order.
	near [][]nodeMask

	// scratchLines is reused by the invariant checks, which would
	// otherwise allocate a fresh line set on every residency scan.
	scratchLines []cache.Line

	// invWords is per-machine scratch for the wide (>64-node) directory's
	// AcquireExclusiveWords, sized to dir.NumWords() at construction so
	// the 256-core fan-out path allocates nothing. Unused (nil) on narrow
	// machines, which stay on the single-word fast path.
	invWords []uint64
}

// nodeMask holds the nodes of one hop-distance class that fall in holder
// word w.
type nodeMask struct {
	w    int
	mask uint64
}

// New builds a machine from cfg with a memLimit-byte address space.
func New(cfg topology.Config, memLimit int) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lines := uint64(memLimit) / uint64(cfg.L1.LineSize); lines > cache.MaxLines {
		// A cache way names at most cache.MaxLines lines; a larger
		// image would hand the caches lines they cannot hold.
		return nil, fmt.Errorf("machine: memory limit %d B is %d lines, beyond the %d a cache way can hold",
			memLimit, lines, cache.MaxLines)
	}
	n := cfg.NumCores()
	if nodes := n + cfg.Chips; nodes > coherence.MaxNodes {
		// Fail loudly here rather than panicking inside the directory:
		// a machine too wide for the sharer bitset would silently alias
		// holder bits and corrupt every coherence decision.
		return nil, fmt.Errorf("machine: %d cores + %d chips = %d directory nodes exceeds the supported maximum %d",
			n, cfg.Chips, nodes, coherence.MaxNodes)
	}
	m := &Machine{
		cfg:      cfg,
		img:      mem.NewImage(memLimit),
		l2:       make([]*cache.Cache, n),
		l3:       make([]*cache.Cache, cfg.Chips),
		dir:      coherence.NewDirectory(n + cfg.Chips),
		ctr:      perfctr.NewSet(n),
		dram:     make([]bwMeter, cfg.Chips),
		lineSize: cfg.L1.LineSize,
	}
	for i := range m.dram {
		m.dram[i] = newBWMeter(cfg.Lat.DRAMServiceInterval)
	}
	if cfg.Lat.LinkServiceInterval > 0 && cfg.Chips > 1 {
		m.link = make([]bwMeter, cfg.Chips)
		for i := range m.link {
			m.link[i] = newBWMeter(cfg.Lat.LinkServiceInterval)
		}
	}
	if w := m.dir.NumWords(); w > 1 {
		m.invWords = make([]uint64, w)
	}
	if usePrefixL1(cfg) {
		m.l2Sets = cfg.L2.Sets()
		m.l2Mask = uint64(m.l2Sets - 1)
		m.l1Assoc = uint8(cfg.L1.Assoc)
		m.l1Prefix = make([]uint8, n*m.l2Sets)
	} else {
		m.l1 = make([]*cache.Cache, n)
	}
	for i := 0; i < n; i++ {
		if m.l1 != nil {
			m.l1[i] = cache.New(cfg.L1)
		}
		m.l2[i] = cache.New(cfg.L2)
	}
	for i := 0; i < cfg.Chips; i++ {
		m.l3[i] = cache.New(cfg.L3)
	}
	m.ncores = n
	m.chipOf = make([]int, n)
	for i := 0; i < n; i++ {
		m.chipOf[i] = cfg.ChipOf(i)
	}
	m.hop = make([][]int, cfg.Chips)
	m.remoteLat = make([][]sim.Cycles, cfg.Chips)
	m.dramLat = make([][]sim.Cycles, cfg.Chips)
	for a := 0; a < cfg.Chips; a++ {
		m.hop[a] = make([]int, cfg.Chips)
		m.remoteLat[a] = make([]sim.Cycles, cfg.Chips)
		m.dramLat[a] = make([]sim.Cycles, cfg.Chips)
		for b := 0; b < cfg.Chips; b++ {
			m.hop[a][b] = cfg.HopDistance(a, b)
			m.remoteLat[a][b] = cfg.RemoteCacheLatency(a, b)
			m.dramLat[a][b] = cfg.DRAMLatency(a, b)
		}
	}
	m.near = make([][]nodeMask, cfg.Chips)
	for a := range m.near {
		m.near[a] = m.distanceClasses(a)
	}
	return m, nil
}

// usePrefixL1 reports whether cfg's L1s can be kept as per-set prefix
// counts of the L2s. With as many L1 as L2 sets, one Index selects the
// same set number in both, and in an inclusive true-LRU hierarchy every
// access moves its line to the MRU end of both sets, so an L1 set is
// always the k most recent ways of its L2 set: k grows by one (up to the
// L1's ways) on each L1 miss and shrinks by one when an invalidation
// removes one of those ways. An L2 victim, the set's least recent way, is
// below any k when the L2 has more ways. With more L2 than L1 sets, an L1
// set's lines are spread over several L2 sets, and its recency across
// them is not recorded there.
func usePrefixL1(cfg topology.Config) bool {
	return cfg.L1.Sets() == cfg.L2.Sets() && cfg.L1.Assoc < cfg.L2.Assoc && cfg.L1.Assoc <= 255
}

// distanceClasses builds near[chip]: every directory node grouped by its
// chip's hop distance from chip, nearest class first, each class as its
// non-empty holder-word masks in word order.
func (m *Machine) distanceClasses(chip int) []nodeMask {
	nw := m.dir.NumWords()
	// Distance d's masks are masks[d*nw : (d+1)*nw].
	masks := make([]uint64, (slices.Max(m.hop[chip])+1)*nw)
	for n := 0; n < m.dir.Nodes(); n++ {
		masks[m.hop[chip][m.nodeChip(n)]*nw+n/64] |= 1 << uint(n%64)
	}
	var out []nodeMask
	for i, mask := range masks {
		if mask != 0 {
			out = append(out, nodeMask{i % nw, mask})
		}
	}
	return out
}

// nodeChip returns the chip of directory node n: a core's chip, or the
// chip whose L3 n is.
func (m *Machine) nodeChip(n int) int {
	if n < m.ncores {
		return m.chipOf[n]
	}
	return n - m.ncores
}

// MustNew is New for configurations known valid at compile time (presets).
func MustNew(cfg topology.Config, memLimit int) *Machine {
	m, err := New(cfg, memLimit)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine's topology.
func (m *Machine) Config() topology.Config { return m.cfg }

// Image returns the simulated physical address space.
func (m *Machine) Image() *mem.Image { return m.img }

// Counters returns the per-core event counters.
func (m *Machine) Counters() *perfctr.Set { return m.ctr }

// LineSize returns the cache line size in bytes.
func (m *Machine) LineSize() int { return m.lineSize }

// NumCores returns the machine's core count without copying the config.
func (m *Machine) NumCores() int { return m.ncores }

// ChipOf returns the chip of core via the precomputed table — the cheap
// form of Config().ChipOf for per-operation callers.
func (m *Machine) ChipOf(core int) int { return m.chipOf[core] }

// HopDist returns the Manhattan distance between two chips via the
// precomputed table.
func (m *Machine) HopDist(a, b int) int { return m.hop[a][b] }

// prefix returns core's L1 prefix counts, one per L2 set.
func (m *Machine) prefix(core int) []uint8 {
	return m.l1Prefix[core*m.l2Sets : (core+1)*m.l2Sets]
}

// L1Holds reports whether line l is resident in core's L1, changing no
// recency.
func (m *Machine) L1Holds(core int, l cache.Line) bool {
	idx := cache.IndexOf(l)
	if m.l1 != nil {
		return m.l1[core].DepthAt(l, idx) >= 0
	}
	d := m.l2[core].DepthAt(l, idx)
	return d >= 0 && d < int(m.prefix(core)[uint64(idx)&m.l2Mask])
}

// L1Lines returns the lines resident in core's L1 in ascending order (for
// inspection and tests).
func (m *Machine) L1Lines(core int) []cache.Line {
	if m.l1 != nil {
		return m.l1[core].Lines()
	}
	var out []cache.Line
	for s, k := range m.prefix(core) {
		for d := 0; d < int(k); d++ {
			l, _ := m.l2[core].LineAt(s, d)
			out = append(out, l)
		}
	}
	slices.Sort(out)
	return out
}

// L2 returns core's L2 cache.
func (m *Machine) L2(core int) *cache.Cache { return m.l2[core] }

// L3 returns chip's shared L3 cache.
func (m *Machine) L3(chip int) *cache.Cache { return m.l3[chip] }

// Directory returns the coherence directory (for inspection and tests).
func (m *Machine) Directory() *coherence.Directory { return m.dir }

// coreNode and l3Node map hardware structures to directory nodes.
func (m *Machine) coreNode(core int) coherence.Node { return coherence.Node(core) }
func (m *Machine) l3Node(chip int) coherence.Node {
	return coherence.Node(m.ncores + chip)
}

// homeChip returns the chip whose memory controller owns a line. Lines are
// interleaved across chips by line number, the usual commodity policy.
func (m *Machine) homeChip(l cache.Line) int { return int(uint64(l) % uint64(m.cfg.Chips)) }

// Access performs one memory access of up to a cache line at addr and
// returns its latency. `at` is the simulated time the access issues;
// callers performing batched scans pass at + (latency accumulated so far).
func (m *Machine) Access(core int, addr mem.Addr, write bool, at sim.Time) sim.Cycles {
	return m.AccessRange(core, addr, 1, write, at)
}

// Load charges a read of [addr, addr+size) and returns its total latency.
// The range may span many lines; each is charged in sequence.
func (m *Machine) Load(core int, addr mem.Addr, size int, at sim.Time) sim.Cycles {
	return m.AccessRange(core, addr, size, false, at)
}

// Store charges a write of [addr, addr+size) and returns its total latency.
func (m *Machine) Store(core int, addr mem.Addr, size int, at sim.Time) sim.Cycles {
	return m.AccessRange(core, addr, size, true, at)
}

// AccessRange charges an access to every line overlapping
// [addr, addr+size), serialized, and returns the total latency. It is the
// heart of the model and its only per-line loop: per-core state (counters,
// L1, L2) is resolved once per range, the set-index page hash once per
// page, and the issue and stall counters are added once per range.
//
// On the prefix geometry (usePrefixL1) the L1 is the top k ways of the L2
// set: a line on the set's MRU way with k > 0 is an L1 hit with nothing
// to update, and any other line costs one L2 scan that also refreshes
// it. A depth below k is an L1 hit; anything else is an L1 miss (an L2
// hit, or missL2) after which the L1 holds one more way, up to its
// associativity.
//
// On the other geometries an L1 hit on the set's most recently used way
// finishes with no L2 call: an L2 has at least as many sets as its L1
// (topology.Config.Validate), so an L1 set's MRU line is also the MRU
// line of its L2 set (CheckInvariants) and the L2 refresh would change
// nothing. Any other L1 hit refreshes L2 recency (inclusive hierarchy),
// and a miss drops into missLine, the out-of-line slow path.
//
// A store then acquires exclusive ownership. The common case allocates
// nothing.
//
//o2:hotpath
func (m *Machine) AccessRange(core int, addr mem.Addr, size int, write bool, at sim.Time) sim.Cycles {
	if size <= 0 {
		return 0
	}
	first := cache.LineOf(addr, m.lineSize)
	last := cache.LineOf(addr+mem.Addr(size-1), m.lineSize)
	c := m.ctr.Core(core)
	l2 := m.l2[core]
	var l1 *cache.Cache
	var prefix []uint8
	if m.l1Prefix != nil {
		prefix = m.prefix(core)
	} else {
		l1 = m.l1[core]
	}
	page := cache.PageIndex(first)
	var total sim.Cycles
	for l := first; l <= last; l++ {
		if l%cache.PageLines == 0 {
			page = cache.PageIndex(l)
		}
		idx := page | cache.Index(l%cache.PageLines)
		var lat sim.Cycles
		if prefix != nil {
			s := uint64(idx) & m.l2Mask
			k := prefix[s]
			if k > 0 && l2.HoldsMRU(l, idx) {
				lat = m.cfg.Lat.L1Hit
			} else if d := l2.LookupDepthAt(l, idx); d >= 0 && d < int(k) {
				lat = m.cfg.Lat.L1Hit
			} else {
				c.L1Miss++
				if d >= 0 {
					c.L2Loads++
					lat = m.cfg.Lat.L2Hit
				} else {
					lat = m.missL2(core, l, idx, at+total, c)
				}
				if k < m.l1Assoc {
					prefix[s] = k + 1
				}
			}
		} else {
			switch {
			case l1.HoldsMRU(l, idx):
				lat = m.cfg.Lat.L1Hit
			case l1.LookupAt(l, idx):
				l2.LookupAt(l, idx)
				lat = m.cfg.Lat.L1Hit
			default:
				c.L1Miss++
				lat = m.missLine(core, l, idx, at+total, c)
			}
		}
		if write {
			lat += m.acquireOwnership(core, l, idx, c)
		}
		total += lat
	}
	if n := uint64(last - first + 1); write {
		c.Stores += n
	} else {
		c.Loads += n
	}
	c.StallCycles += uint64(total)
	return total
}

// missLine services an access that missed an L1 cache (the geometries
// without prefix counts): the core's L2, then missL2. The L2 lookup is
// ungated: most L1 misses hit L2, and an L2 hit never touched the
// directory before, so gating it measured slower.
func (m *Machine) missLine(core int, l cache.Line, idx cache.Index, at sim.Time, c *perfctr.Counters) sim.Cycles {
	if m.l2[core].LookupAt(l, idx) {
		c.L2Loads++
		// The caller's L1 lookup just failed, so InsertNewAt applies;
		// an L1 victim needs no bookkeeping, since inclusion keeps it
		// in L2.
		m.l1[core].InsertNewAt(l, idx, false)
		return m.cfg.Lat.L2Hit
	}
	return m.missL2(core, l, idx, at, c)
}

// missL2 services an access that missed the core's L2: the chip's shared
// L3, then remote caches or DRAM. It resolves the line's directory slot
// once; the L3 gate, the L3 hit's removal, the holder search and the
// final holder record all use it. Every such miss ends by recording the
// core as a holder, so mapping the slot's page up front maps nothing the
// miss would not.
func (m *Machine) missL2(core int, l cache.Line, idx cache.Index, at sim.Time, c *perfctr.Counters) sim.Cycles {
	c.L2Miss++
	s := m.dir.SlotOf(l)
	chip := m.chipOf[core]
	// The 32-way L3 is scanned only when the directory says the chip's
	// L3 holds the line.
	if l3node := m.l3Node(chip); m.dir.HoldsAt(s, l3node) {
		// Exclusive victim L3: a hit promotes the line back into the
		// core's private hierarchy and removes it from L3. RemoveAt
		// probes and invalidates in one scan.
		_, wasDirty := m.l3[chip].RemoveAt(l, idx)
		m.dir.RemoveSharerAt(s, l3node)
		c.L3Loads++
		m.installCore(core, l, idx, s, wasDirty)
		return m.cfg.Lat.L3Hit
	}
	c.L3Miss++
	return m.fetchMiss(core, l, idx, s, at, c)
}

// fetchMiss services a miss from the nearest remote cache or DRAM,
// charging memory-controller and (when modeled) interconnect queueing on
// top of the raw distance latency. Queueing cycles are attributed to the
// requesting core's bw-stall counters so the monitor can see where
// bandwidth, not distance, is the cost.
//
//o2:hotpath
func (m *Machine) fetchMiss(core int, l cache.Line, idx cache.Index, s coherence.Slot, at sim.Time, c *perfctr.Counters) sim.Cycles {
	myChip := m.chipOf[core]
	var lat sim.Cycles
	if srcChip, found := m.nearestHolderChip(myChip, s); found {
		lat = m.remoteLat[myChip][srcChip]
		c.RemoteFetches++
		if m.link != nil && srcChip != myChip {
			// The line crosses the interconnect from the source chip's
			// egress port.
			q := m.link[srcChip].reserve(at)
			lat += q
			c.LinkQueueCycles += uint64(q)
		}
	} else {
		home := m.homeChip(l)
		q := m.dram[home].reserve(at)
		lat = m.dramLat[myChip][home] + q
		c.DRAMLoads++
		c.DRAMQueueCycles += uint64(q)
		if m.link != nil && home != myChip {
			// Remote-home fill: the line also transits the home chip's
			// interconnect port on its way over.
			lq := m.link[home].reserve(at)
			lat += lq
			c.LinkQueueCycles += uint64(lq)
		}
	}
	m.installCore(core, l, idx, s, false)
	return lat
}

// nearestHolderChip returns the chip of the lowest-numbered node holding
// the slot's line among those nearest to chip, reading the directory's
// holder words in place against near[chip], nearest class first. The
// requesting core cannot be a holder (it just missed), nor can chip's L3
// (the L3 gate just missed). The classes cover every node, so the walk
// finds a holder whenever the set has one. It allocates nothing.
//
//o2:hotpath
func (m *Machine) nearestHolderChip(chip int, s coherence.Slot) (int, bool) {
	h := m.dir.HolderWordsAt(s)
	var any uint64
	for _, x := range h {
		any |= x
	}
	if any == 0 {
		// A DRAM fill: skip the walk over every class.
		return 0, false
	}
	for _, nm := range m.near[chip] {
		if x := h[nm.w] & nm.mask; x != 0 {
			return m.nodeChip(nm.w*64 + bits.TrailingZeros64(x)), true
		}
	}
	return 0, false
}

// acquireOwnership makes core the sole holder after a write, invalidating
// remote copies and marking the local line dirty; idx is the line's set
// Index. Returns the added cost.
// The directory work is one fused acquire-exclusive probe; the
// invalidation set comes back as a bitmask (narrow) or as words written
// into machine-owned scratch (wide), so no store ever allocates.
//
//o2:hotpath
func (m *Machine) acquireOwnership(core int, l cache.Line, idx cache.Index, c *perfctr.Counters) sim.Cycles {
	node := m.coreNode(core)
	var extra sim.Cycles
	if m.invWords == nil {
		if inv := m.dir.AcquireExclusive(l, node); inv != 0 {
			extra = m.cfg.Lat.InvalidateCost
			c.Invalidations += uint64(bits.OnesCount64(inv))
			m.invalidateWord(inv, 0, l, idx)
		}
	} else if m.dir.AcquireExclusiveWords(l, node, m.invWords) {
		extra = m.cfg.Lat.InvalidateCost
		for w, inv := range m.invWords {
			if inv == 0 {
				continue
			}
			c.Invalidations += uint64(bits.OnesCount64(inv))
			m.invalidateWord(inv, w*64, l, idx)
		}
	}
	if m.l1 != nil {
		m.l1[core].MarkDirtyAt(l, idx)
	}
	m.l2[core].MarkDirtyAt(l, idx)
	return extra
}

// invalidateWord removes line l, whose set Index is idx, from every cache
// whose node bit is set in one holder word covering nodes [base, base+64).
// With prefix counts, a core's L1 loses the line iff its depth in the L2
// set was below the set's count, which then shrinks by one.
//
//o2:hotpath
func (m *Machine) invalidateWord(inv uint64, base int, l cache.Line, idx cache.Index) {
	ncores := m.ncores
	for inv != 0 {
		n := base + bits.TrailingZeros64(inv)
		inv &= inv - 1
		if n >= ncores {
			m.l3[n-ncores].RemoveAt(l, idx)
			continue
		}
		d, _ := m.l2[n].RemoveAt(l, idx)
		if m.l1 != nil {
			m.l1[n].RemoveAt(l, idx)
		} else if k := &m.l1Prefix[n*m.l2Sets+int(uint64(idx)&m.l2Mask)]; d >= 0 && d < int(*k) {
			*k--
		}
	}
}

// installCore inserts a fetched line into core's L2 and, when the core
// has an L1 cache, its L1 (the caller grows a prefix count itself),
// cascading evictions: L2 victims fall into the chip's L3 (victim cache),
// L3 victims are written back to DRAM (holder bit dropped). Inclusion
// (L1 ⊆ L2) is maintained so the directory can treat each core's private
// hierarchy as a single node.
func (m *Machine) installCore(core int, l cache.Line, idx cache.Index, s coherence.Slot, dirty bool) {
	chip := m.chipOf[core]
	node := m.coreNode(core)
	c := m.ctr.Core(core)

	// InsertNewAt: every install follows a failed L2 lookup on this line
	// (the L2 miss), so the residency re-scan is skipped.
	if victim, vDirty, evicted := m.l2[core].InsertNewAt(l, idx, dirty); evicted {
		c.Evictions++
		vidx := cache.IndexOf(victim)
		if m.l1 != nil {
			// Maintain inclusion: the victim may still sit in L1. A
			// prefix L1 never holds it: it was the L2 set's least recent
			// way, below any prefix count.
			m.l1[core].RemoveAt(victim, vidx)
		}
		// The victim is another line, and a page never moves, so s
		// stays valid across the spill.
		m.spillToL3(chip, node, victim, vidx, vDirty, c)
	}
	m.dir.AddSharerAt(s, node)
	if m.l1 != nil {
		// Every caller is on the miss path after this core's L1 lookup
		// failed, so InsertNewAt applies.
		m.l1[core].InsertNewAt(l, idx, false)
	}
}

// spillToL3 places an L2 victim, whose set Index is vidx, into the chip's
// victim L3. The victim may already sit there (another core of the chip
// spilled it first); only then does the L3 need Insert's residency scan,
// and the directory's move of the holder bit says which case this is.
// Moving the bit before the insert is safe: the line the L3 evicts is
// never the victim, so the two directory updates commute.
func (m *Machine) spillToL3(chip int, from coherence.Node, victim cache.Line, vidx cache.Index, dirty bool, c *perfctr.Counters) {
	l3 := m.l3[chip]
	l3node := m.l3Node(chip)
	var w cache.Line
	var evicted bool
	if m.dir.MoveSharer(victim, from, l3node) {
		w, _, evicted = l3.InsertAt(victim, vidx, dirty)
	} else {
		w, _, evicted = l3.InsertNewAt(victim, vidx, dirty)
	}
	if evicted {
		c.Evictions++
		m.dir.RemoveSharer(w, l3node) // writeback to DRAM
	}
}

// FlushAll empties every cache and the directory (cold-start between
// benchmark phases). DRAM controller queues are also reset.
func (m *Machine) FlushAll() {
	for i := range m.l1 {
		m.l1[i].Clear()
	}
	clear(m.l1Prefix)
	for i := range m.l2 {
		m.l2[i].Clear()
	}
	for i := range m.l3 {
		m.l3[i].Clear()
	}
	m.dir.Reset()
	for i := range m.dram {
		m.dram[i].reset()
	}
	for i := range m.link {
		m.link[i].reset()
	}
}

// Reset returns the machine to its just-built state for arena reuse
// across sweep repeats: caches, directory, and DRAM queues empty
// (FlushAll) and every performance counter zeroed. The memory image's
// allocation history is owned by the caller and rolled back separately
// (mem.Image.Mark / ResetTo), because only the caller knows which
// allocations are shared build state and which are per-repeat.
func (m *Machine) Reset() {
	m.FlushAll()
	m.ctr.Reset()
}

// CheckInvariants verifies the structural properties the model relies on:
//
//  1. directory ↔ cache agreement: node n holds line l in the directory
//     iff l is resident in n's cache(s);
//  2. inclusion: every L1 line is also in the same core's L2;
//  3. owner validity: a line's dirty owner is one of its holders;
//  4. count conservation: the directory tracks exactly the distinct
//     resident lines;
//  5. MRU agreement: every L1 set's most recently used line is the most
//     recently used line of its L2 set, which lets AccessRange skip the
//     L2 refresh on such a hit;
//  6. prefix bounds: on the prefix geometry, which satisfies 2 and 5 by
//     construction and so checks them no further, every L1 prefix count
//     is at most the L1's associativity and the occupied ways of its L2
//     set;
//  7. counter conservation, per core: every L1 miss is an L2 load or an
//     L2 miss, every L2 miss an L3 load or an L3 miss, every L3 miss a
//     remote fetch or a DRAM load, and no more lines missed L1 than were
//     accessed.
//
// It is called from tests after simulations; it is not on the hot path.
func (m *Machine) CheckInvariants() error {
	ncores := m.cfg.NumCores()
	for core := 0; core < ncores; core++ {
		if c := m.ctr.Core(core); c.L1Miss != c.L2Loads+c.L2Miss || c.L2Miss != c.L3Loads+c.L3Miss ||
			c.L3Miss != c.RemoteFetches+c.DRAMLoads || c.L1Miss > c.Loads+c.Stores {
			return fmt.Errorf("machine: core %d counters break miss conservation: %+v", core, *c)
		}
		if err := m.checkL1(core); err != nil {
			return err
		}
		node := m.coreNode(core)
		m.scratchLines = m.l2[core].AppendLines(m.scratchLines[:0])
		for _, l := range m.scratchLines {
			if !m.dir.Holds(l, node) {
				return fmt.Errorf("machine: core %d holds line %d but directory disagrees", core, l)
			}
		}
	}
	for chip := 0; chip < m.cfg.Chips; chip++ {
		node := m.l3Node(chip)
		m.scratchLines = m.l3[chip].AppendLines(m.scratchLines[:0])
		for _, l := range m.scratchLines {
			if !m.dir.Holds(l, node) {
				return fmt.Errorf("machine: chip %d L3 holds line %d but directory disagrees", chip, l)
			}
		}
	}
	return m.checkDirectoryBacked()
}

// checkL1 checks core's L1 against its L2: inclusion and MRU agreement
// for an L1 cache, the bounds of every count for prefix counts.
func (m *Machine) checkL1(core int) error {
	l2 := m.l2[core]
	if m.l1 == nil {
		for s, k := range m.prefix(core) {
			if k == 0 {
				continue
			}
			if k > m.l1Assoc {
				return fmt.Errorf("machine: core %d L1 prefix count %d of set %d exceeds the L1's %d ways", core, k, s, m.l1Assoc)
			}
			if _, ok := l2.LineAt(s, int(k)-1); !ok {
				return fmt.Errorf("machine: core %d L1 prefix count %d of set %d exceeds its L2 set's lines", core, k, s)
			}
		}
		return nil
	}
	m.scratchLines = m.l1[core].AppendLines(m.scratchLines[:0])
	for _, l := range m.scratchLines {
		if !l2.Contains(l) {
			return fmt.Errorf("machine: core %d L1 line %d violates inclusion", core, l)
		}
	}
	m.scratchLines = m.l1[core].AppendMRU(m.scratchLines[:0])
	for _, l := range m.scratchLines {
		if !l2.HoldsMRU(l, cache.IndexOf(l)) {
			return fmt.Errorf("machine: core %d L1 MRU line %d is not the MRU line of its L2 set", core, l)
		}
	}
	return nil
}

// checkDirectoryBacked walks all resident lines and confirms each directory
// holder bit is backed by a real resident line, and that the directory's
// tracked-line count equals the number of distinct resident lines (with
// the per-node checks above, this rules out a tracked line no cache holds
// and drift in the directory's count). The residency scan reuses the
// machine's line scratch (sorted and deduplicated in place) instead of
// building a fresh map per call.
func (m *Machine) checkDirectoryBacked() error {
	ncores := m.cfg.NumCores()
	lines := m.scratchLines[:0]
	for i := 0; i < ncores; i++ {
		lines = m.l2[i].AppendLines(lines)
	}
	for i := 0; i < m.cfg.Chips; i++ {
		lines = m.l3[i].AppendLines(lines)
	}
	slices.Sort(lines)
	lines = slices.Compact(lines)
	m.scratchLines = lines
	if n := m.dir.TrackedLines(); n != len(lines) {
		return fmt.Errorf("machine: directory tracks %d lines but %d distinct lines are resident", n, len(lines))
	}
	for _, l := range lines {
		for _, n := range m.dir.Holders(l) {
			var resident bool
			if int(n) < ncores {
				resident = m.l2[n].Contains(l)
			} else {
				resident = m.l3[int(n)-ncores].Contains(l)
			}
			if !resident {
				return fmt.Errorf("machine: directory says node %d holds line %d but no cache does", n, l)
			}
		}
		if o := m.dir.Owner(l); o != coherence.NoOwner && !m.dir.Holds(l, o) {
			return fmt.Errorf("machine: line %d owner %d is not a holder", l, o)
		}
	}
	return nil
}

// ResidencyReport describes where the bytes of one object currently live,
// for the Fig. 2 cache-contents reproduction.
type ResidencyReport struct {
	Object    *mem.Object
	L2Bytes   []int // per core
	L3Bytes   []int // per chip
	DRAMBytes int   // bytes resident nowhere on chip
}

// Residency computes a report for obj. Bytes resident in multiple caches
// are counted in each (that duplication is exactly what Fig. 2 shows).
func (m *Machine) Residency(obj *mem.Object) ResidencyReport {
	r := ResidencyReport{
		Object:  obj,
		L2Bytes: make([]int, m.cfg.NumCores()),
		L3Bytes: make([]int, m.cfg.Chips),
	}
	for i := range m.l2 {
		r.L2Bytes[i] = m.l2[i].ResidentBytesIn(obj.Span)
	}
	for i := range m.l3 {
		r.L3Bytes[i] = m.l3[i].ResidentBytesIn(obj.Span)
	}
	ls := m.lineSize
	first := cache.LineOf(obj.Base, ls)
	last := cache.LineOf(obj.End()-1, ls)
	for l := first; l <= last; l++ {
		if !m.dir.HasHolders(l) {
			r.DRAMBytes += ls
		}
	}
	return r
}
