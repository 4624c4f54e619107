package o2

// This file is the `o2bench trace` entry point: one telemetry-enabled
// open-loop WebService cell whose timeline Runtime.WriteTimeline renders.
// The default configuration is the ROADMAP memory-level-parallelism
// investigation made visible: a NUMA256 machine under bandwidth-aware
// CoreTime, sampled every TraceConfig.Interval cycles, so the timeline
// shows exactly how far below BWSaturationFrac the smoothed per-socket
// queueing signal sits in today's one-miss-in-flight substrate.

import "fmt"

// traceSeedStratum decorrelates the trace cell's derived load seed from
// other streams derived from the same runtime seed ("tr" in ASCII).
const traceSeedStratum = 0x7472

// TraceConfig describes one telemetry-traced service run.
// RunTrace always schedules it with bandwidth-aware CoreTime.
type TraceConfig struct {
	Machine  Topology
	Spec     WebSpec
	Load     ServiceLoad
	Interval Cycles // telemetry sampling period
	Seed     uint64
}

// DefaultTraceConfig is the full-size trace cell: an open-loop NUMA256
// web service under bandwidth-aware CoreTime, sized so the working set
// scales with the core count (8 docroots per core, like the scale sweep)
// and sampled finely enough for a few hundred timeline windows.
func DefaultTraceConfig() TraceConfig {
	cores := NUMA256.NumCores()
	return TraceConfig{
		Machine: NUMA256,
		Spec:    WebSpec{DocRoots: 8 * cores, FilesPerRoot: 128},
		Load: ServiceLoad{
			// Offered just above the machine's measured saturation point
			// (~6.9M achieved rps), so the memory system runs flat out —
			// the load shape under which the bandwidth signal would fire
			// if the substrate could generate enough memory-level
			// parallelism (ROADMAP).
			Requests:      120_000,
			RPS:           8_000_000,
			Skew:          0.99,
			DirectHandoff: true,
		},
		// ~770 windows over the ~30.7M-cycle run: comfortably inside the
		// sampler's 1024-row ring (30k cycles lands at exactly 1024
		// probes — zero headroom), so the timeline covers the whole run
		// even if load tuning shifts the run length.
		Interval: 40_000,
		Seed:     1,
	}
}

// QuickTraceConfig is the CI-scale trace cell: a Tiny8 machine and a
// small request count, finishing in tens of milliseconds while still
// producing every event family the timeline format carries.
func QuickTraceConfig() TraceConfig {
	return TraceConfig{
		Machine: Tiny8,
		Spec:    WebSpec{DocRoots: 24, FilesPerRoot: 128},
		Load: ServiceLoad{
			Requests:      2000,
			RPS:           4_000_000,
			Skew:          0.99,
			DirectHandoff: true,
		},
		Interval: 20_000,
		Seed:     1,
	}
}

// TraceRun is a finished trace cell: call rt.WriteTimeline on Runtime to
// render the timeline, or read the summary fields directly.
type TraceRun struct {
	Runtime *Runtime
	Result  ServiceResult

	Samples        int     // telemetry probes taken
	PeakBWSignal   float64 // highest smoothed per-socket bandwidth signal seen
	PeakBWSocket   int     // socket where it peaked
	PeakBWAt       Time    // simulated time of the peak
	SaturationFrac float64 // the monitor's saturation threshold, for comparison
}

// RunTrace builds and drives one telemetry-traced service cell under
// bandwidth-aware CoreTime.
func RunTrace(cfg TraceConfig) (*TraceRun, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("o2: trace interval %d must be positive", cfg.Interval)
	}
	rt, err := New(
		WithTopology(cfg.Machine),
		WithScheduler(CoreTime),
		WithSeed(cfg.Seed),
		WithTelemetry(cfg.Interval),
		withBandwidthAware(),
	)
	if err != nil {
		return nil, err
	}
	svc, err := rt.NewWebService(cfg.Spec)
	if err != nil {
		return nil, err
	}
	load := cfg.Load
	if load.Seed == 0 {
		load.Seed = DeriveSeed(cfg.Seed, traceSeedStratum)
	}
	res, err := svc.Run(load)
	if err != nil {
		return nil, err
	}
	sig, sock, at, err := rt.PeakBWSignal()
	if err != nil {
		return nil, err
	}
	return &TraceRun{
		Runtime:        rt,
		Result:         res,
		Samples:        rt.TelemetrySamples(),
		PeakBWSignal:   sig,
		PeakBWSocket:   sock,
		PeakBWAt:       at,
		SaturationFrac: rt.saturationFrac(),
	}, nil
}
