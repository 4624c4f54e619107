package o2

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// quickTelemetryCell builds and drives one small telemetry-enabled web
// cell, returning the runtime and its service result.
func quickTelemetryCell(t *testing.T, opts ...Option) (*Runtime, ServiceResult) {
	t.Helper()
	rt := MustNew(append([]Option{
		WithTopology(Tiny8),
		WithSeed(11),
		WithTelemetry(20_000),
	}, opts...)...)
	svc, err := rt.NewWebService(WebSpec{DocRoots: 16, FilesPerRoot: 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run(ServiceLoad{
		Requests: 800, RPS: 2_000_000, Skew: 0.99, DirectHandoff: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt, res
}

// TestMetricsEnumeratesSubsystems pins the acceptance criterion: the
// registry must expose at least 10 metrics spanning at least 3
// subsystems, and the service counters must agree with the run's result.
func TestMetricsEnumeratesSubsystems(t *testing.T) {
	rt, res := quickTelemetryCell(t)
	ms := rt.Metrics()
	if len(ms) < 10 {
		t.Fatalf("Metrics() returned %d metrics, want >= 10: %+v", len(ms), ms)
	}
	subsystems := map[string]bool{}
	byName := map[string]float64{}
	for _, m := range ms {
		name, _, ok := strings.Cut(m.Name, ".")
		if !ok {
			t.Fatalf("metric %q is not subsystem-qualified (want subsystem.name)", m.Name)
		}
		subsystems[name] = true
		byName[m.Name] = m.Value
	}
	if len(subsystems) < 3 {
		t.Fatalf("metrics span %d subsystems (%v), want >= 3", len(subsystems), subsystems)
	}
	if got := byName["service.requests_served"]; got != float64(res.Completed) {
		t.Fatalf("service.requests_served = %v, result Completed = %d", got, res.Completed)
	}
	if got := byName["service.requests_dropped"]; got != float64(res.Dropped) {
		t.Fatalf("service.requests_dropped = %v, result Dropped = %d", got, res.Dropped)
	}
	if byName["engine.events_dispatched"] == 0 || byName["machine.loads"] == 0 {
		t.Fatalf("live gauges read zero after a run: %+v", byName)
	}
	if byName["telemetry.samples"] == 0 {
		t.Fatal("sampler took no samples during the run")
	}
}

// TestWriteMetricsJSON checks the dump is valid JSON with sorted keys.
func TestWriteMetricsJSON(t *testing.T) {
	rt, _ := quickTelemetryCell(t)
	var buf bytes.Buffer
	if err := rt.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("WriteMetrics output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(m) < 10 {
		t.Fatalf("dump holds %d metrics, want >= 10", len(m))
	}
}

// TestCoreTimeKeepsRetiredBandwidthGauges pins two gauges whose policy is
// gone: the benchmark's committed digests (bench/testdata/expected) hash
// every sched.* gauge of a CoreTime runtime, so both names must stay
// registered, reading 0 after a run.
func TestCoreTimeKeepsRetiredBandwidthGauges(t *testing.T) {
	rt, _ := quickTelemetryCell(t, WithScheduler(CoreTime))
	byName := map[string]float64{}
	for _, m := range rt.Metrics() {
		byName[m.Name] = m.Value
	}
	if byName["sched.ops"] == 0 {
		t.Fatal("sched.ops = 0: the cell never ran under CoreTime")
	}
	for _, name := range []string{"sched.bw_spread_moves", "sched.bw_admit_refusals"} {
		v, ok := byName[name]
		if !ok {
			t.Errorf("CoreTime runtime does not register %s", name)
		} else if v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
}

// TestTraceDisabledSentinels covers the "tracing off" error paths: a
// runtime built without WithTrace/WithTelemetry must say so, not return
// an empty trace.
func TestTraceDisabledSentinels(t *testing.T) {
	rt := MustNew(WithTopology(Tiny8))
	if _, err := rt.TraceEvents(); !errors.Is(err, ErrTraceDisabled) {
		t.Fatalf("TraceEvents error = %v, want ErrTraceDisabled", err)
	}
	var buf bytes.Buffer
	if n, err := rt.DumpTrace(&buf); !errors.Is(err, ErrTraceDisabled) || n != 0 {
		t.Fatalf("DumpTrace = (%d, %v), want (0, ErrTraceDisabled)", n, err)
	}
	if err := rt.WriteTimeline(&buf); !errors.Is(err, ErrTelemetryDisabled) {
		t.Fatalf("WriteTimeline error = %v, want ErrTelemetryDisabled", err)
	}
}

// TestTraceEnabledEmptyIsNotAnError covers the other path: tracing on
// but nothing recorded yet must be a nil-error empty result.
func TestTraceEnabledEmptyIsNotAnError(t *testing.T) {
	rt := MustNew(WithTopology(Tiny8), WithTrace(16))
	evs, err := rt.TraceEvents()
	if err != nil {
		t.Fatalf("TraceEvents on a traced runtime: %v", err)
	}
	if len(evs) != 0 {
		t.Fatalf("expected an empty trace before any run, got %d events", len(evs))
	}
	var buf bytes.Buffer
	n, err := rt.DumpTrace(&buf)
	if err != nil || n != 0 {
		t.Fatalf("DumpTrace = (%d, %v), want (0, nil)", n, err)
	}
}

// TestTelemetryImpliesTracing: WithTelemetry alone must leave the trace
// accessors usable, since the timeline merges scheduler events.
func TestTelemetryImpliesTracing(t *testing.T) {
	rt, _ := quickTelemetryCell(t)
	evs, err := rt.TraceEvents()
	if err != nil {
		t.Fatalf("TraceEvents under WithTelemetry: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("expected scheduler decisions in the implied trace")
	}
}

// TestTelemetryDoesNotChangeResults pins the sampler's observer
// contract: enabling telemetry must not perturb the simulation. The
// same cell with and without WithTelemetry must produce identical
// service results.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	run := func(opts ...Option) ServiceResult {
		rt := MustNew(append([]Option{WithTopology(Tiny8), WithSeed(11)}, opts...)...)
		svc, err := rt.NewWebService(WebSpec{DocRoots: 16, FilesPerRoot: 64})
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Run(ServiceLoad{
			Requests: 800, RPS: 2_000_000, Skew: 0.99, DirectHandoff: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run()
	sampled := run(WithTelemetry(20_000))
	if !reflect.DeepEqual(plain, sampled) {
		t.Fatalf("telemetry changed the result:\noff: %+v\non:  %+v", plain, sampled)
	}
}

// TestTimelineDeterministic: two identical telemetry runs must emit
// byte-identical timelines.
func TestTimelineDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	rt1, _ := quickTelemetryCell(t)
	if err := rt1.WriteTimeline(&a); err != nil {
		t.Fatal(err)
	}
	rt2, _ := quickTelemetryCell(t)
	if err := rt2.WriteTimeline(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("identical runs produced different timelines (%d vs %d bytes)", a.Len(), b.Len())
	}
}

// TestWithTelemetryValidation: a non-positive interval is an option
// error, reported by New like every other bad option.
func TestWithTelemetryValidation(t *testing.T) {
	if _, err := New(WithTelemetry(0)); err == nil {
		t.Fatal("WithTelemetry(0) must fail validation")
	}
}

// TestTracedArenaRepeatsMatchFreshRuns extends the arena transparency
// pin to traced runtimes: WithTrace cells used to be excluded from arena
// reuse entirely; now they reuse and must stay behavior-transparent,
// with the tracer reset between repeats.
func TestTracedArenaRepeatsMatchFreshRuns(t *testing.T) {
	p := DefaultRunParams()
	p.Threads = 4
	p.Warmup = 200_000
	p.Measure = 400_000

	checkRepeatsMatchFresh(t, Sweep{
		Name: "arena-traced",
		Base: Cell{
			Machine:  Tiny8,
			Scenario: DirLookupScenario{Params: p},
			Options:  []Option{WithTrace(256)},
		},
		Axes:    []Axis{dirCountAxis(128, 4), schedulerAxis(CoreTime)},
		Repeats: 3,
		Seed:    29,
		Workers: 1,
	})
}

// TestTracedRuntimeIsReusable pins the arena eligibility fix itself: a
// drained traced runtime must now be reusable.
func TestTracedRuntimeIsReusable(t *testing.T) {
	rt := MustNew(WithTopology(Tiny8), WithTrace(64))
	rt.mustEnsure()
	rt.Run() // drain the monitor's pending tick: reuse requires an idle engine
	ar := &cellArena{rt: rt}
	if !ar.reusable() {
		t.Fatal("drained traced runtime must be arena-reusable")
	}
}

// TestTelemetryArenaReset pins resetForRepeat's telemetry half: after a
// reset, counters and samples are gone and a second identical run
// produces an identical timeline.
func TestTelemetryArenaReset(t *testing.T) {
	rt := MustNew(WithTopology(Tiny8), WithSeed(11), WithTelemetry(20_000))
	drive := func() []byte {
		svc, err := rt.NewWebService(WebSpec{DocRoots: 16, FilesPerRoot: 64})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Run(ServiceLoad{
			Requests: 800, RPS: 2_000_000, Skew: 0.99, DirectHandoff: true,
		}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rt.WriteTimeline(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	rt.mustEnsure()
	mark := rt.mach.Image().Mark()
	first := drive()
	rt.resetForRepeat(11, mark)
	if rt.TelemetrySamples() != 0 {
		t.Fatalf("samples survive reset: %d", rt.TelemetrySamples())
	}
	for _, m := range rt.Metrics() {
		if strings.HasPrefix(m.Name, "service.requests") && m.Value != 0 {
			t.Fatalf("counter %s = %v after reset, want 0", m.Name, m.Value)
		}
	}
	second := drive()
	if !bytes.Equal(first, second) {
		t.Fatalf("arena-reset repeat timeline differs (%d vs %d bytes)", len(first), len(second))
	}
}
