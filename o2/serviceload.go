package o2

// The WebService open-loop driver: a seeded arrival process feeds a
// bounded request queue drained by worker threads, with every request's
// enqueue→done latency recorded into per-worker histograms. Two drive
// modes share the queue and the schedule: the default polls the arrival
// schedule with timed worker sleeps (one pre-scheduled event per
// arrival), and DirectHandoff parks idle workers on a FIFO wait list
// with a single chained arrival event waking them — the constant-space
// form a million-request soak run needs.
//
// Determinism contract (pinned by the web preset golden test): one run is
// a pure function of (topology, options, WebSpec, ServiceLoad, seed).
// Arrival instants, request targets, and compaction victims are all drawn
// from split RNG streams derived from ServiceLoad.Seed (or the runtime
// seed) before any thread runs; the queue, the recorders, and the arrival
// cursor are load-generator bookkeeping mutated only in engine context
// (the simulation is single-threaded), so the host's worker count, CPU
// count, and wall clock can not reach any of it.
//
// Overload semantics: the queue holds at most QueueCap requests. An
// arrival that finds it full is dropped and counted — the bounded queue
// keeps measured latency finite under overload, and the dropped count plus
// the offered-vs-achieved throughput gap is how overload shows up in
// results instead of as an unbounded latency integral.

import (
	"fmt"
	"math"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// webSeedStratum decorrelates the service load's derived seed from other
// streams derived from the same runtime seed ("web" in ASCII).
const webSeedStratum = 0x776562

// Stream indices under the load seed: arrival instants, request targets,
// and per-compactor victim choice.
const (
	webArrivalStream = 1
	webContentStream = 2
	webCompactStream = 3
)

// defaultWebRequests is the open-loop request count per run.
const defaultWebRequests = 4000

// Latency histogram shape: upper bounds from 512 cycles growing by 2^(1/8)
// (≈9% per bucket) over 256 bounded buckets, reaching ~2×10¹² cycles
// (≈18 simulated minutes at 2 GHz) before the overflow bucket. Quantiles
// read from it are at most one growth step above the true value, fine
// enough to compare schedulers' tails.
const (
	latFirstBound = 512
	latBuckets    = 257
)

// latGrowth is 2^(1/8); computed once so every recorder shares identical
// bounds (Histogram.Merge requires it).
var latGrowth = math.Pow(2, 0.125)

// newLatencyHistogram returns one worker's latency recorder.
func newLatencyHistogram() *stats.Histogram {
	return stats.NewHistogramGrowth(latFirstBound, latGrowth, latBuckets)
}

// ArrivalProcess selects how request arrivals are spaced: PoissonArrivals
// (seeded exponential gaps, the default) or UniformArrivals (exact
// deterministic spacing).
type ArrivalProcess = workload.ArrivalProcess

// Arrival processes for ServiceLoad.Arrivals.
const (
	// PoissonArrivals draws exponential interarrival gaps from the load
	// seed: the memoryless stream of many independent clients.
	PoissonArrivals = workload.PoissonArrivals
	// UniformArrivals spaces arrivals exactly one mean gap apart,
	// isolating queueing caused by service-time variance from queueing
	// caused by arrival burstiness.
	UniformArrivals = workload.UniformArrivals
)

// ServiceLoad drives one open-loop measurement of a WebService: Requests
// requests arrive at RPS requests per simulated second, queue in a
// QueueCap-bounded buffer, and are drained by Workers server threads.
// An optional background compaction thread class rewrites directories
// concurrently with the foreground reads.
type ServiceLoad struct {
	// Workers is the server worker thread count; 0 means one per core —
	// the thread-per-core worker pool a service deploys.
	Workers int
	// Requests is the total number of requests offered (default 4000).
	Requests int
	// RPS is the offered arrival rate in requests per second of simulated
	// time. It must be positive: an open-loop load has no natural default
	// rate, because saturation depends on the machine and the tree.
	RPS float64
	// Arrivals selects the arrival process (default PoissonArrivals).
	Arrivals ArrivalProcess
	// QueueCap bounds the request queue; 0 means 4 × Workers. Arrivals
	// that find the queue full are dropped and counted.
	QueueCap int
	// Skew is the Zipf popularity parameter over docroots; 0 is uniform,
	// 0.99 the classic hot-vhost skew.
	Skew float64
	// CompactionShare is the duty cycle in [0, 1) of each background
	// compaction thread: the fraction of its time spent rewriting
	// directories, the rest idle. 0 disables compaction.
	CompactionShare float64
	// CompactionWorkers is the compaction thread count (default 1 when
	// CompactionShare > 0; ignored when it is 0).
	CompactionWorkers int
	// TimeLimit, when non-zero, truncates the run after that many cycles
	// of simulated time: requests still queued or being served at the
	// limit are reported as InFlight, not Completed. Once the result is
	// collected, Run stops the threads the limit stranded and drops the
	// pending events, so a truncated run leaks nothing and a sweep's
	// repeats reuse its runtime like any other; the in-flight requests
	// never complete.
	TimeLimit Cycles
	// DirectHandoff selects the parked-worker drive: idle workers block
	// on a FIFO wait list and each arrival wakes one, instead of workers
	// polling the arrival schedule with timed sleeps. Arrival events are
	// chained — each arrival schedules the next — so the engine holds one
	// pending arrival instead of all Requests of them, which is what
	// makes million-request soak runs cheap.
	DirectHandoff bool
	// Seed seeds the load's RNG streams; 0 derives one from the runtime
	// seed.
	Seed uint64
}

// DefaultServiceLoad returns the standard load shape — one worker per
// core, 4000 Poisson requests, hot-vhost skew, no compaction — with the
// arrival rate left for the caller: pick one against the machine (see
// the web preset for the paper-machine rates).
func DefaultServiceLoad() ServiceLoad {
	return ServiceLoad{Requests: defaultWebRequests, Skew: 0.99}
}

// WithDefaults returns the load with zero fields filled in (Workers and
// QueueCap resolve against cores; RPS has no default and is validated by
// Run).
func (l ServiceLoad) WithDefaults(cores int) ServiceLoad {
	if l.Workers == 0 {
		l.Workers = cores
	}
	if l.Requests == 0 {
		l.Requests = defaultWebRequests
	}
	if l.QueueCap == 0 {
		l.QueueCap = 4 * l.Workers
	}
	if l.CompactionShare > 0 && l.CompactionWorkers == 0 {
		l.CompactionWorkers = 1
	}
	if l.CompactionShare == 0 && l.CompactionWorkers > 0 {
		// A zero share disables the class outright; negative counts fall
		// through to validation.
		l.CompactionWorkers = 0
	}
	return l
}

func (l ServiceLoad) validate() error {
	if l.Workers < 0 || l.Requests < 0 || l.QueueCap < 0 || l.CompactionWorkers < 0 {
		return fmt.Errorf("o2: ServiceLoad counts must be non-negative (0 means default), got %+v", l)
	}
	if math.IsNaN(l.RPS) || math.IsInf(l.RPS, 0) || l.RPS <= 0 {
		return fmt.Errorf("o2: ServiceLoad.RPS must be positive and finite, got %v", l.RPS)
	}
	if math.IsNaN(l.CompactionShare) || l.CompactionShare < 0 || l.CompactionShare >= 1 {
		return fmt.Errorf("o2: ServiceLoad.CompactionShare %v must be in [0, 1)", l.CompactionShare)
	}
	return nil
}

// ServiceResult is one measured open-loop run.
type ServiceResult struct {
	// Requests is the number of requests offered (arrived). Every offered
	// request lands in exactly one bucket: Completed (served), Dropped
	// (found the queue full), or InFlight (still queued or being served
	// when a TimeLimit truncated the run), so Completed + Dropped +
	// InFlight == Requests always holds. InFlight is zero for untruncated
	// runs. Latency statistics cover Completed requests only — an
	// in-flight request has no completion time to measure.
	Requests  uint64
	Completed uint64
	Dropped   uint64
	InFlight  uint64
	// Workers is the resolved server worker count.
	Workers int
	// Elapsed is the simulated time from the drive's start until the last
	// request completed.
	Elapsed Cycles
	// Scheduler names the policy the runtime ran under.
	Scheduler string

	// OfferedKRPS is the configured arrival rate; AchievedKRPS is what
	// the service actually completed per second of simulated time. The
	// gap between them (and Dropped) is how overload reads.
	OfferedKRPS  float64
	AchievedKRPS float64

	// Latency of completed requests, enqueue→done, in simulated cycles:
	// the mean and exact maximum, plus histogram-quantile upper bounds
	// for the percentiles a service operator provisions against.
	MeanLatency float64
	MaxLatency  float64
	P50         float64
	P95         float64
	P99         float64
	P999        float64

	// CacheHitRate is the fraction of memory accesses served on-chip;
	// RemoteFetches and DRAMLoads are the off-chip counts behind it.
	CacheHitRate  float64
	RemoteFetches uint64
	DRAMLoads     uint64
	// Migrations counts thread migrations during the run (0 under the
	// baseline thread scheduler).
	Migrations uint64
}

// svcState is the driver's bookkeeping, mutated only in engine context.
// The request queue is a fixed-capacity ring sized to QueueCap, so a
// million-request soak run queues in constant space instead of growing a
// slice one entry per request.
type svcState struct {
	arrivals []Time
	ring     []int32 // fixed-size ring buffer of queued request indices
	head     int     // ring index of the oldest queued request
	count    int     // queued requests
	arrived  int
	dropped  int
	served   int
	idle     sched.WaitList // parked workers (DirectHandoff only)

	// Registry counters mirroring the ints above; nil-safe to Add on, so
	// a driver built outside a service (tests) pays nothing.
	arrivedC *telemetry.Counter
	droppedC *telemetry.Counter
	servedC  *telemetry.Counter
}

// finished reports whether every offered request has been served or
// dropped — the signal that stops the background compaction class.
func (st *svcState) finished() bool { return st.served+st.dropped == len(st.arrivals) }

// enqueueNext admits the next scheduled request or drops it when the
// queue is full. It is the single arrival callback: the request's index
// is the arrival cursor itself, which is what lets every arrival event
// share one closure instead of capturing its index in a per-request one.
func (st *svcState) enqueueNext() {
	i := st.arrived
	st.arrived++
	st.arrivedC.Add(1)
	if st.count == len(st.ring) {
		st.dropped++
		st.droppedC.Add(1)
		return
	}
	st.ring[(st.head+st.count)%len(st.ring)] = int32(i)
	st.count++
}

// pop removes the oldest queued request.
func (st *svcState) pop() (int, bool) {
	if st.count == 0 {
		return 0, false
	}
	i := st.ring[st.head]
	st.head = (st.head + 1) % len(st.ring)
	st.count--
	return int(i), true
}

// svcScratch is WebService.Run's reusable bookkeeping. Everything here is
// either fully reset (histograms, recorder moments) or fully rewritten
// (the zipf table on a shape change) before a run reads it, so reuse is
// invisible to results — it only removes the per-run allocations that
// would otherwise dominate an arena-reused sweep repeat's steady state.
type svcScratch struct {
	zipf      zipfTable
	recorders []*latRecorder
	merged    *stats.Histogram
	names     []string
}

// zipfTable holds one Zipf table across runs of a service, rebuilding it
// only when the (n, skew) shape changes: the table's values depend on
// nothing else, so reuse is invisible to results, and a sweep repeat on
// an arena-reused service skips the O(n) rebuild.
type zipfTable struct{ z *workload.Zipf }

// get returns the table for (n, skew).
func (t *zipfTable) get(n int, skew float64) (*workload.Zipf, error) {
	if t.z != nil && t.z.N() == n && t.z.Skew() == skew {
		return t.z, nil
	}
	z, err := workload.NewZipf(n, skew)
	if err != nil {
		return nil, err
	}
	t.z = z
	return z, nil
}

// recordersFor returns the first n recorders, reset, growing the pool as
// needed.
func (sc *svcScratch) recordersFor(n int) []*latRecorder {
	for len(sc.recorders) < n {
		sc.recorders = append(sc.recorders, &latRecorder{hist: newLatencyHistogram()})
	}
	recs := sc.recorders[:n]
	for _, rec := range recs {
		rec.hist.Reset()
		rec.sum, rec.max = 0, 0
	}
	return recs
}

// mergedHist returns the reset merge target.
func (sc *svcScratch) mergedHist() *stats.Histogram {
	if sc.merged == nil {
		sc.merged = newLatencyHistogram()
	} else {
		sc.merged.Reset()
	}
	return sc.merged
}

// workerName returns the cached name for server worker w.
func (sc *svcScratch) workerName(w int) string {
	for len(sc.names) <= w {
		sc.names = append(sc.names, fmt.Sprintf("web worker %d", len(sc.names)))
	}
	return sc.names[w]
}

// latRecorder is one worker's latency accounting: the histogram for
// quantiles plus exact moments. Workers record privately and the driver
// merges in worker order, so aggregation is independent of completion
// interleaving by construction (integer bucket counts and float sums
// combined in a canonical order).
type latRecorder struct {
	hist *stats.Histogram
	sum  float64
	max  float64
}

func (r *latRecorder) record(lat float64) {
	r.hist.Add(lat)
	r.sum += lat
	if lat > r.max {
		r.max = lat
	}
}

// Run offers the load to the service and measures it. The runtime must not
// have other threads pending: Run drives the simulation to completion.
func (s *WebService) Run(load ServiceLoad) (ServiceResult, error) {
	rt := s.rt
	load = load.WithDefaults(rt.NumCores())
	if err := load.validate(); err != nil {
		return ServiceResult{}, err
	}
	zipf, err := s.scratch.zipf.get(s.spec.DocRoots, load.Skew)
	if err != nil {
		return ServiceResult{}, err
	}

	seed := load.Seed
	if seed == 0 {
		seed = DeriveSeed(rt.Seed(), webSeedStratum)
	}

	// Draw the whole request schedule up front: arrival instants from one
	// stream, request targets from another. Nothing below draws from a
	// shared generator, so the schedule is independent of execution order.
	start := rt.Now()
	meanGap := rt.ClockHz() / load.RPS
	arrivals, err := workload.ArrivalTimes(load.Arrivals, start,
		meanGap, load.Requests, NewRNG(DeriveSeed(seed, webArrivalStream)))
	if err != nil {
		return ServiceResult{}, err
	}
	contentRNG := NewRNG(DeriveSeed(seed, webContentStream))
	reqRoot := make([]int32, load.Requests)
	reqFile := make([]int32, load.Requests)
	for i := range reqRoot {
		reqRoot[i] = int32(zipf.Next(contentRNG))
		reqFile[i] = int32(contentRNG.Intn(s.spec.FilesPerRoot))
	}

	st := &svcState{arrivals: arrivals, ring: make([]int32, load.QueueCap),
		arrivedC: s.arrivedC, droppedC: s.droppedC, servedC: s.servedC}
	s.state = st
	if load.DirectHandoff {
		// Chained arrivals: each arrival enqueues, wakes one parked
		// worker, and schedules the next arrival, so the engine carries a
		// single pending arrival event instead of all Requests of them.
		// The final arrival wakes every parked worker so they can observe
		// that the schedule is exhausted and exit.
		var arrive func()
		arrive = func() {
			st.enqueueNext()
			st.idle.WakeOne()
			if st.arrived < len(st.arrivals) {
				rt.At(st.arrivals[st.arrived], arrive)
			} else {
				st.idle.WakeAll()
			}
		}
		if len(arrivals) > 0 {
			rt.At(arrivals[0], arrive)
		}
	} else {
		// Arrival events are scheduled before any thread spawns, so at
		// equal timestamps the engine fires the enqueue before it wakes a
		// worker sleeping toward that arrival (events tie-break in
		// schedule order): a woken worker always observes the request
		// already queued. One shared callback serves every arrival — the
		// request index is the arrival cursor (arrivals fire in schedule
		// order), so nothing needs capturing per request.
		arrive := st.enqueueNext
		for _, at := range arrivals {
			rt.At(at, arrive)
		}
	}

	before := rt.mach.Counters().Total()
	var done Time
	recorders := s.scratch.recordersFor(load.Workers)
	homes := RoundRobin(load.Workers+load.CompactionWorkers, rt.NumCores())
	for w := 0; w < load.Workers; w++ {
		rec := recorders[w]
		rt.Go(s.scratch.workerName(w), homes[w], func(t *Thread) {
			for {
				i, ok := st.pop()
				if !ok {
					if st.arrived == len(st.arrivals) {
						return // queue drained and no arrivals left
					}
					if load.DirectHandoff {
						// Park until an arrival hands a request over (or
						// the final arrival wakes everyone to exit).
						st.idle.Wait(t.t)
					} else {
						t.IdleUntil(st.arrivals[st.arrived])
					}
					continue
				}
				s.Resolve(t, int(reqRoot[i]), int(reqFile[i]))
				rec.record(float64(t.Now() - st.arrivals[i]))
				st.served++
				st.servedC.Add(1)
				if t.Now() > done {
					done = t.Now()
				}
			}
		})
	}
	for c := 0; c < load.CompactionWorkers; c++ {
		rng := NewRNG(DeriveSeed(seed, webCompactStream, uint64(c)))
		rt.Go(fmt.Sprintf("web compaction %d", c), homes[load.Workers+c], func(t *Thread) {
			// Duty-cycled closed loop: rewrite one directory (hot roots
			// compact most — they accrue the most garbage), then idle so
			// compaction occupies CompactionShare of this thread's time.
			for !st.finished() {
				begin := t.Now()
				s.Compact(t, zipf.Next(rng))
				took := float64(t.Now() - begin)
				t.IdleUntil(t.Now() + Time(took*(1-load.CompactionShare)/load.CompactionShare))
			}
		})
	}
	if load.TimeLimit > 0 {
		rt.RunUntil(start + load.TimeLimit)
		// Stop the threads the limit stranded once the result is built.
		defer rt.eng.Close()
	} else {
		rt.Run()
	}

	delta := rt.mach.Counters().Total().Sub(before)
	merged := s.scratch.mergedHist()
	res := ServiceResult{
		Requests:      uint64(st.arrived),
		Completed:     uint64(st.served),
		Dropped:       uint64(st.dropped),
		InFlight:      uint64(st.arrived - st.served - st.dropped),
		Workers:       load.Workers,
		Elapsed:       Cycles(done - start),
		Scheduler:     rt.SchedulerName(),
		OfferedKRPS:   load.RPS / 1000,
		RemoteFetches: delta.RemoteFetches,
		DRAMLoads:     delta.DRAMLoads,
		Migrations:    delta.MigrationsIn,
	}
	var sum float64
	for _, rec := range recorders {
		if err := merged.Merge(rec.hist); err != nil {
			return ServiceResult{}, fmt.Errorf("o2: merging worker latency histograms: %w", err)
		}
		sum += rec.sum
		if rec.max > res.MaxLatency {
			res.MaxLatency = rec.max
		}
	}
	if merged.Total() > 0 {
		res.MeanLatency = sum / float64(merged.Total())
		// Quantile caps its bucket bound at the histogram's exact maximum
		// observation, so tail quantiles are finite — and tight — even
		// when the mass lands in the overflow bucket.
		res.P50 = merged.Quantile(0.50)
		res.P95 = merged.Quantile(0.95)
		res.P99 = merged.Quantile(0.99)
		res.P999 = merged.Quantile(0.999)
	}
	if res.Elapsed > 0 {
		seconds := float64(res.Elapsed) / rt.ClockHz()
		res.AchievedKRPS = float64(res.Completed) / seconds / 1000
	}
	if acc := delta.Loads + delta.Stores; acc > 0 {
		res.CacheHitRate = 1 - float64(delta.RemoteFetches+delta.DRAMLoads)/float64(acc)
	}
	return res, nil
}
