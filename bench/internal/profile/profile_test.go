package profile

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var sink uint64

// busyLoop spins for d; it is the one function the profiled test runs.
//
//go:noinline
func busyLoop(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

func TestBusyLoopAttributesToItsFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	busyLoop(700 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var total, inLoop, inBench int64
	for _, s := range samples {
		total += s.Nanos
		for _, f := range s.Frames {
			if strings.HasPrefix(f, "repro/") {
				if f == "repro/bench/internal/profile.busyLoop" {
					inLoop += s.Nanos
				}
				break
			}
		}
		if Layer(s.Frames) == "bench" {
			inBench += s.Nanos
		}
	}
	t.Logf("sampled %v: busyLoop %.1f%%, bench layer %.1f%%", time.Duration(total),
		100*float64(inLoop)/float64(total), 100*float64(inBench)/float64(total))
	if total < int64(200*time.Millisecond) {
		t.Fatalf("profile holds %v of samples, too few to judge", time.Duration(total))
	}
	if inLoop < total*9/10 {
		t.Errorf("busyLoop is the innermost repository frame of %.0f%% of sampled time, want >= 90%%", 100*float64(inLoop)/float64(total))
	}
	if inBench < total*9/10 {
		t.Errorf("%.0f%% of sampled time attributed to the bench layer, want >= 90%%", 100*float64(inBench)/float64(total))
	}
}

func TestLayer(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/coherence.(*Directory).findSlot", "repro/internal/machine.(*Machine).missLine"}, "coherence"},
		{[]string{"runtime.memmove", "repro/internal/cache.(*Cache).InsertNew"}, "cache"},
		{[]string{"repro/internal/trace.(*Tracer).Add", "repro/internal/core.(*Runtime).OpStart"}, "telemetry"},
		{[]string{"repro/internal/topology.NUMA256"}, Other},
		{[]string{"repro/o2.(*WebService).Resolve"}, "o2"},
		{[]string{"repro/o2.scenarioForCell[...]"}, "o2"},
		// The runtime's hand-off entry points claim their callees and
		// win over the simulator frame that switched.
		{[]string{"runtime.runqput", "runtime.ready", "runtime.goready", "runtime.send", "runtime.chansend", "runtime.chansend1", "repro/internal/sim.(*Proc).switchToEngine"}, "go.sched"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "go.sched"},
		{[]string{"runtime.casgstatus", "runtime.gopark", "runtime.chanrecv", "runtime.chanrecv1", "repro/internal/sim.(*Engine).dispatch"}, "go.sched"},
		// Allocation and collection, whoever allocates.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgcLarge", "runtime.mallocgc", "repro/internal/workload.BuildEnvOn"}, "go.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go.gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "go.gc"},
		{[]string{"runtime.nanotime", "runtime.sysmon"}, Other},
		{nil, Other},
	} {
		if got := Layer(tc.frames); got != tc.want {
			t.Errorf("Layer(%q) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse(bytes.NewReader([]byte("not a profile"))); err == nil {
		t.Error("Parse accepted a non-gzip input")
	}
}
