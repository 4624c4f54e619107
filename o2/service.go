package o2

// This file is the WebService scenario: the paper's motivating web server
// (§2 cites directory lookup bottlenecking a Web server) promoted to a
// first-class open-loop service subsystem. Its siblings are serviceload.go
// (the seeded arrival process, bounded request queue, open-loop driver, and
// tail-latency recorder) and servicesweep.go (sweep axes, the WebScenario
// cell workload, and the web and soak presets).
//
// Where KVService measures closed-loop throughput — clients issue the next
// operation the moment the previous one returns, so the system can never
// fall behind — WebService is open loop: requests arrive on an external
// schedule whether or not the workers keep up. Queueing delay, and with it
// the p99/p999 tail a service operator actually provisions for, becomes
// visible, and an optional background compaction thread class (bulk
// directory rewrites) supplies the foreground/background memory-system
// interference the related real-time scheduling literature says is where
// multicore schedulers differentiate.

import (
	"fmt"

	"repro/internal/telemetry"
)

// Default WebSpec dimensions: enough vhosts to exceed one chip's cache on
// the paper's machine while fitting the aggregate.
const (
	defaultWebDocRoots     = 64
	defaultWebFilesPerRoot = 512
)

// Per-request computation outside the directory scan, in cycles: parsing
// and dispatching the request line, then building and sending the response
// headers.
const (
	webParseCompute   = 400
	webRespondCompute = 600
)

// compactPerByteCPU is the compaction pass's per-byte serialization cost:
// re-encoding every directory entry while rewriting the table.
const compactPerByteCPU = 0.02

// WebSpec sizes a WebService's namespace: DocRoots virtual-host document
// directories of FilesPerRoot file entries each, laid out as a FAT
// directory tree whose directories are the schedulable objects. Zero
// fields take the defaults (64 roots × 512 files).
type WebSpec struct {
	DocRoots     int
	FilesPerRoot int
}

// WithDefaults returns the spec with zero fields filled in.
func (s WebSpec) WithDefaults() WebSpec {
	if s.DocRoots == 0 {
		s.DocRoots = defaultWebDocRoots
	}
	if s.FilesPerRoot == 0 {
		s.FilesPerRoot = defaultWebFilesPerRoot
	}
	return s
}

func (s WebSpec) validate() error {
	if s.DocRoots <= 0 || s.FilesPerRoot <= 0 {
		return fmt.Errorf("o2: WebSpec fields must be positive, got %+v", s)
	}
	return nil
}

// DirSpec returns the directory tree the namespace maps to.
func (s WebSpec) DirSpec() DirSpec {
	return DirSpec{Dirs: s.DocRoots, EntriesPerDir: s.FilesPerRoot}
}

// MetadataBytes returns the directory metadata footprint the name
// resolution stage contends over.
func (s WebSpec) MetadataBytes() int { return s.DirSpec().TotalBytes() }

// WebService simulates the name-resolution stage of a static web server:
// requests for paths like /DIR00012/F0000345 resolve against a FAT volume
// whose directories are schedulable objects. Build one with
// Runtime.NewWebService, drive it open loop with Run (serviceload.go), or
// compose the per-request primitives (Resolve, Compact) under explicit
// threads.
type WebService struct {
	rt   *Runtime
	spec WebSpec
	tree *DirTree

	// scratch is Run's reusable bookkeeping (recorders, histograms), so
	// a sweep's arena-reused repeats reach a steady state that allocates
	// almost nothing per run. Zero value is ready to use.
	scratch svcScratch

	// Registry counters for the request path (see Runtime.Metrics). Two
	// services on one runtime share them, aggregating their traffic.
	arrivedC *telemetry.Counter
	droppedC *telemetry.Counter
	servedC  *telemetry.Counter

	// state is the most recent Run's driver bookkeeping; the
	// service.queue_depth gauge and the telemetry sampler read the live
	// bounded-queue depth through it.
	state *svcState
}

// NewWebService formats the document tree inside the runtime's memory
// image and registers each docroot directory as a schedulable object. It
// must run before any thread starts.
func (rt *Runtime) NewWebService(spec WebSpec) (*WebService, error) {
	spec = spec.WithDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	tree, err := rt.NewDirTree(spec.DirSpec())
	if err != nil {
		return nil, err
	}
	s := &WebService{rt: rt, spec: spec, tree: tree}
	s.arrivedC = rt.counter("service.requests_arrived")
	s.droppedC = rt.counter("service.requests_dropped")
	s.servedC = rt.counter("service.requests_served")
	rt.tel.reg.Gauge("service.queue_depth", func() float64 {
		if s.state == nil {
			return 0
		}
		return float64(s.state.count)
	})
	rt.tel.queueDepth = func() int {
		if s.state == nil {
			return 0
		}
		return s.state.count
	}
	return s, nil
}

// Spec returns the service's resolved dimensions.
func (s *WebService) Spec() WebSpec { return s.spec }

// Runtime returns the runtime the service was built on.
func (s *WebService) Runtime() *Runtime { return s.rt }

// Tree returns the underlying directory tree, for Placement inspection and
// custom drivers.
func (s *WebService) Tree() *DirTree { return s.tree }

// NumRoots returns the docroot count.
func (s *WebService) NumRoots() int { return s.tree.Len() }

// Resolve charges one request's service time to t: parse and dispatch the
// request line, resolve the file's name in docroot root by directory scan
// (the operation; the directory is the object, bracketed read-only so the
// §6.2 replication extension can act on hot vhosts), then build the
// response headers.
func (s *WebService) Resolve(t *Thread, root, file int) {
	t.Compute(webParseCompute)
	d := s.tree.Dir(root)
	op := t.BeginRO(d.Object())
	d.Lookup(t, d.EntryName(file%d.NumEntries()))
	op.End()
	t.Compute(webRespondCompute)
}

// Compact charges one background compaction pass over docroot root: a bulk
// rewrite of the whole directory table under its lock — re-reading every
// entry with per-byte serialization cost and storing the compacted table
// back. The write invalidates every cached copy of the directory, which is
// precisely the interference foreground reads then pay for.
func (s *WebService) Compact(t *Thread, root int) {
	d := s.tree.Dir(root)
	op := t.Begin(d.Object())
	t.Lock(&d.lock)
	obj := d.Object()
	t.LoadCompute(obj.Addr(0), obj.Size(), compactPerByteCPU)
	t.Store(obj.Addr(0), obj.Size())
	t.Unlock(&d.lock)
	op.End()
}
