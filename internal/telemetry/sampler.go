package telemetry

import (
	"repro/internal/perfctr"
	"repro/internal/sim"
)

// Sample is one decoded row of the sampler's ring: the state of the
// machine over one sampling window. Slices point into the sampler's
// backing arrays and are valid until the next Probe or Reset.
type Sample struct {
	At     sim.Time   // window end (simulated cycles)
	Window sim.Cycles // window length
	Busy   []float64  // per-core busy fraction of the window
	Idle   []float64  // per-core idle fraction of the window
	Dead   float64    // machine-wide dead-time fraction (fast-forwarded idle)
	Queue  []int32    // per-core run-queue depth at sample time
	Placed []int32    // per-core CoreTime placed-object count (zero without CoreTime)
	Depth  int32      // bounded service-queue depth at sample time
	DramQ  []uint64   // per-socket DRAM-controller queueing cycles this window
	LinkQ  []uint64   // per-socket interconnect queueing cycles this window
}

// SchedFill is the scheduler's contribution to a sample: it fills placed
// with per-core placed-object counts. Nil when no such scheduler runs.
type SchedFill func(placed []int32)

// Sampler records periodic machine snapshots into fixed-capacity ring
// buffers. All storage is allocated at construction; Probe writes one
// row without allocating, so enabling telemetry cannot perturb the
// allocation profile the benchmarks pin.
type Sampler struct {
	interval sim.Cycles
	ncores   int
	nsocks   int
	max      int // ring capacity in samples

	n     int    // rows currently held (≤ max)
	next  int    // ring row the next Probe writes
	total uint64 // samples taken since construction/Reset (≥ n once wrapped)

	// ring storage, row-major: row r's cores live at [r*ncores, (r+1)*ncores).
	at     []sim.Time
	window []sim.Cycles
	busy   []float64
	idle   []float64
	dead   []float64
	depth  []int32
	queue  []int32
	placed []int32
	dramQ  []uint64
	linkQ  []uint64

	// probe scratch
	prev     []perfctr.Counters // last snapshot, for deltas
	snaps    []perfctr.Counters
	deltas   []perfctr.Counters
	socks    []perfctr.Counters
	prevDead sim.Cycles
	lastAt   sim.Time
}

// NewSampler returns a sampler for a machine with ncores cores and
// nsocks sockets, holding the most recent capacity samples (≤0 picks a
// default of 1024).
func NewSampler(interval sim.Cycles, capacity, ncores, nsocks int) *Sampler {
	if capacity <= 0 {
		capacity = 1024
	}
	if nsocks < 1 {
		nsocks = 1
	}
	return &Sampler{
		interval: interval,
		ncores:   ncores,
		nsocks:   nsocks,
		max:      capacity,
		at:       make([]sim.Time, capacity),
		window:   make([]sim.Cycles, capacity),
		busy:     make([]float64, capacity*ncores),
		idle:     make([]float64, capacity*ncores),
		dead:     make([]float64, capacity),
		depth:    make([]int32, capacity),
		queue:    make([]int32, capacity*ncores),
		placed:   make([]int32, capacity*ncores),
		dramQ:    make([]uint64, capacity*nsocks),
		linkQ:    make([]uint64, capacity*nsocks),
		prev:     make([]perfctr.Counters, ncores),
		snaps:    make([]perfctr.Counters, 0, ncores),
		deltas:   make([]perfctr.Counters, ncores),
		socks:    make([]perfctr.Counters, nsocks),
	}
}

// Interval returns the sampling period the sampler was built with.
func (s *Sampler) Interval() sim.Cycles { return s.interval }

// NumSamples returns how many samples the ring currently holds.
func (s *Sampler) NumSamples() int {
	if s == nil {
		return 0
	}
	return s.n
}

// TotalSamples returns how many probes have fired since construction or
// the last Reset, including samples the ring has since evicted.
func (s *Sampler) TotalSamples() uint64 {
	if s == nil {
		return 0
	}
	return s.total
}

// Probe records one sample at simulated time now. ctr is the machine's
// counter set, chipOf maps core→socket, dead is the engine's cumulative
// dead time, queueLen reads a core's run-queue depth, depth is the
// bounded service-queue depth (0 without a service), and sched fills the
// scheduler's placement counts (nil without CoreTime). The caller must flush in-progress idle accounting
// first so IdleCycles is current.
//
//o2:hotpath
func (s *Sampler) Probe(now sim.Time, ctr *perfctr.Set, chipOf []int, dead sim.Cycles,
	queueLen func(int) int, depth int, sched SchedFill) {
	if now <= s.lastAt {
		return
	}
	win := sim.Cycles(now - s.lastAt)
	s.snaps = ctr.AppendSnapshots(s.snaps[:0])
	for i := range s.snaps {
		s.deltas[i] = s.snaps[i].Sub(s.prev[i])
	}
	perfctr.RollupGroups(s.socks, s.deltas, chipOf)

	row := s.next
	cb := row * s.ncores
	sb := row * s.nsocks
	fw := float64(win)
	s.at[row] = now
	s.window[row] = win
	for i := 0; i < s.ncores; i++ {
		s.busy[cb+i] = float64(s.deltas[i].BusyCycles) / fw
		s.idle[cb+i] = float64(s.deltas[i].IdleCycles) / fw
		s.queue[cb+i] = int32(queueLen(i))
		s.placed[cb+i] = 0
	}
	for k := 0; k < s.nsocks; k++ {
		s.dramQ[sb+k] = s.socks[k].DRAMQueueCycles
		s.linkQ[sb+k] = s.socks[k].LinkQueueCycles
	}
	s.dead[row] = float64(dead-s.prevDead) / fw
	s.depth[row] = int32(depth)
	if sched != nil {
		sched(s.placed[cb : cb+s.ncores])
	}

	copy(s.prev, s.snaps)
	s.prevDead = dead
	s.lastAt = now
	s.total++
	s.next++
	if s.next == s.max {
		s.next = 0
	}
	if s.n < s.max {
		s.n++
	}
}

// row maps chronological index i (0 = oldest held sample) to its ring row.
func (s *Sampler) row(i int) int {
	if s.n < s.max {
		return i
	}
	r := s.next + i
	if r >= s.max {
		r -= s.max
	}
	return r
}

// SampleAt returns held sample i in chronological order (0 = oldest).
func (s *Sampler) SampleAt(i int) Sample {
	r := s.row(i)
	cb := r * s.ncores
	sb := r * s.nsocks
	return Sample{
		At:     s.at[r],
		Window: s.window[r],
		Busy:   s.busy[cb : cb+s.ncores],
		Idle:   s.idle[cb : cb+s.ncores],
		Dead:   s.dead[r],
		Queue:  s.queue[cb : cb+s.ncores],
		Placed: s.placed[cb : cb+s.ncores],
		Depth:  s.depth[r],
		DramQ:  s.dramQ[sb : sb+s.nsocks],
		LinkQ:  s.linkQ[sb : sb+s.nsocks],
	}
}

// Reset discards every held sample and re-arms the delta baseline, so a
// reused runtime samples exactly like a freshly built one.
func (s *Sampler) Reset() {
	if s == nil {
		return
	}
	s.n, s.next, s.total = 0, 0, 0
	s.prevDead, s.lastAt = 0, 0
	for i := range s.prev {
		s.prev[i] = perfctr.Counters{}
	}
}
