package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/bench/internal/profile"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, all host-side
// and all from untraced passes: setup_s sums the cells' median builds,
// run_s is the mean pass's drive time, alloc_mb the median pass's total
// and peak_rss_mb the child's peak.
var endToEnd = []metricDef{
	{"setup_s", "s"},             // build calls: o2.New plus the scenario builder
	{"run_s", "s"},               // drive calls: the scenario's Run
	{"sim_maccess_per_s", "M/s"}, // simulated line accesses per host second of drive
	{"peak_rss_mb", "MB"},        // the child's maximum resident set
	{"alloc_mb", "MB"},           // heap bytes the build and drive calls allocated
}

// metricLayers are the layers with a self_s metric: those every workload
// spends measurable drive time in. The report prints the others without
// making them metrics: fatfs, which kv-numa256 never enters, and o2,
// sched, stats, telemetry and go.gc, which read zero in some workload's
// drives (go.gc in the allocation-free soak).
var metricLayers = []string{
	"sim", "exec", "machine", "cache", "coherence", "mem", "perfctr",
	"core", "workload", "go.sched", "other",
}

// perLayer are the metrics of single layers: drive-phase self times per
// pass from the traced passes' profiles, exact simulator counts per pass
// from the registry, and ratios of the two. The DRAM and link queue
// cycles are printed but are no metric: at this model they read zero on
// every workload.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range metricLayers {
		defs = append(defs, metricDef{"self_s." + l, "s"})
	}
	return append(defs,
		metricDef{"sim.events", "count"},
		metricDef{"sim.fast_sleeps", "count"},
		metricDef{"sim.fast_sleep_frac", "ratio"},
		metricDef{"machine.accesses", "count"},
		metricDef{"machine.stores", "count"},
		metricDef{"machine.onchip_frac", "ratio"},
		metricDef{"core.migrations", "count"},
		metricDef{"core.rebalances", "count"},
		metricDef{"core.objects_moved", "count"},
		metricDef{"ns_per_event.sim", "ns"},
		metricDef{"ns_per_access.memory", "ns"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// report is one workload's results, checked and reduced.
type report struct {
	workload          string
	passes            []pass
	untraced, traced  []pass
	attempted, failed int
	problems          []string
	// digests are the first untraced pass's, by cell.
	digests   map[string]string
	committed bool
	correct   bool
	endToEnd  map[string]float64
	perLayer  map[string]float64
	layerS    map[string]float64 // every layer's self seconds per traced pass
}

// summarize checks every cell of every pass and reduces the passes to
// metrics. A cell fails when it errs, breaks an invariant, or its digest
// differs from the committed one, from the first pass's, or (traced) from
// the untraced pass's.
func summarize(name string, cr childResult, maxRSS int64, want map[string]string, latencyErr error) report {
	r := report{workload: name, passes: cr.Passes, digests: map[string]string{}, committed: want != nil}
	for _, p := range cr.Passes {
		if p.Traced {
			r.traced = append(r.traced, p)
		} else {
			r.untraced = append(r.untraced, p)
		}
	}
	if latencyErr != nil {
		r.problems = append(r.problems, latencyErr.Error())
	}
	for _, c := range r.untraced[0].Cells {
		r.digests[c.Name] = c.Digest
	}
	for _, p := range cr.Passes {
		for _, c := range p.Cells {
			r.attempted++
			if msg := r.check(c, p.Traced, want); msg != "" {
				r.failed++
				r.problems = append(r.problems, c.Name+": "+msg)
			}
		}
	}
	r.correct = r.failed == 0 && latencyErr == nil

	var alloc []float64
	for _, p := range r.untraced {
		alloc = append(alloc, totals(p).alloc/(1<<20))
	}
	drive := meanDrive(r.untraced)
	r.endToEnd = map[string]float64{
		"setup_s":           setupMedians(r.untraced),
		"run_s":             drive,
		"sim_maccess_per_s": ratio(totals(r.untraced[0]).accesses, drive) / 1e6,
		"peak_rss_mb":       float64(maxRSS) / (1 << 20),
		"alloc_mb":          median(alloc),
	}
	if len(r.traced) > 0 {
		r.perLayer, r.layerS = layerMetrics(cr.LayerNanos, r.traced, drive)
	}
	return r
}

// setupMedians sums, over the cells, the median of each cell's build
// times across the passes, so that a burst of host noise during one build
// moves no cell's value.
func setupMedians(passes []pass) float64 {
	setups := map[string][]float64{}
	for _, p := range passes {
		for _, c := range p.Cells {
			setups[c.Name] = append(setups[c.Name], c.SetupS)
		}
	}
	var setup float64
	for _, c := range passes[0].Cells {
		setup += median(setups[c.Name])
	}
	return setup
}

// meanDrive is the passes' mean drive time. Every pass runs the same
// simulation, so its time varies only with the host, whose interference
// on a shared virtual machine comes both in bursts and in states that
// last longer than a run. Of the estimates tried, averaging all the drive
// time a run measured had the narrowest worst-case spread from run to run
// (bench/README.md).
func meanDrive(passes []pass) float64 {
	var drive float64
	for _, p := range passes {
		drive += totals(p).drive
	}
	return drive / float64(len(passes))
}

func (r *report) check(c cellRun, traced bool, want map[string]string) string {
	first := r.digests[c.Name]
	switch {
	case c.Err != "":
		return c.Err
	case want != nil && want[c.Name] != c.Digest:
		return fmt.Sprintf("digest %s, committed %q", c.Digest, want[c.Name])
	case traced && c.Digest != first:
		return fmt.Sprintf("traced digest %s differs from untraced %s", c.Digest, first)
	case c.Digest != first:
		return fmt.Sprintf("digest %s differs from the first pass's %s", c.Digest, first)
	}
	return ""
}

type passTotals struct{ setup, drive, accesses, alloc float64 }

func totals(p pass) passTotals {
	var t passTotals
	for _, c := range p.Cells {
		t.setup += c.SetupS
		t.drive += c.DriveS
		t.accesses += c.Metrics["machine.loads"] + c.Metrics["machine.stores"]
		t.alloc += float64(c.AllocBytes)
	}
	return t
}

// layerMetrics reduces the traced passes: self times per pass, counts of
// one pass (every pass repeats the same simulation), and ratios. A
// layer's self time is its share of the profile's samples times the
// drives' host time, so the layers add up to the traced drive time.
func layerMetrics(nanos map[string]int64, traced []pass, untracedRun float64) (map[string]float64, map[string]float64) {
	var sampled int64
	for _, ns := range nanos {
		sampled += ns
	}
	driven := meanDrive(traced)
	self := map[string]float64{}
	for layer, ns := range nanos {
		self[layer] = driven * ratio(float64(ns), float64(sampled))
	}
	sum := func(names ...string) float64 {
		var s float64
		for _, c := range traced[0].Cells {
			for _, name := range names {
				s += c.Metrics[name]
			}
		}
		return s
	}
	events, fast := sum("engine.events_dispatched"), sum("engine.fast_sleeps")
	accesses := sum("machine.loads", "machine.stores")
	m := map[string]float64{
		"sim.events":           events,
		"sim.fast_sleeps":      fast,
		"sim.fast_sleep_frac":  ratio(fast, fast+events),
		"machine.accesses":     accesses,
		"machine.stores":       sum("machine.stores"),
		"machine.onchip_frac":  1 - ratio(sum("machine.remote_fetches", "machine.dram_loads"), accesses),
		"machine.queue_cycles": sum("machine.dram_queue_cycles", "machine.link_queue_cycles"),
		"core.migrations":      sum("sched.migrations"),
		"core.rebalances":      sum("sched.rebalances"),
		"core.objects_moved":   sum("sched.objects_moved"),
		"ns_per_event.sim":     1e9 * ratio(self["sim"]+self["go.sched"], events),
		"ns_per_access.memory": 1e9 * ratio(self["machine"]+self["cache"]+self["coherence"]+self["mem"]+self["perfctr"], accesses),
	}
	m["trace.overhead_frac"] = ratio(driven, untracedRun) - 1
	for _, l := range metricLayers {
		m["self_s."+l] = self[l]
	}
	return m, self
}

// ratio returns a ÷ b, or 0 when b is 0, so no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs, or 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// host identifies the machine a result was measured on. Results from
// different hosts are never compared.
type host struct {
	Go, OS, Arch, CPU string
	NumCPU            int
	ChildGoMaxProcs   int
}

func fingerprint() host {
	h := host{Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, CPU: "unknown", NumCPU: runtime.NumCPU()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func (h host) String() string {
	return fmt.Sprintf("%s %s/%s cpu=%q nproc=%d child_gomaxprocs=%d", h.Go, h.OS, h.Arch, h.CPU, h.NumCPU, h.ChildGoMaxProcs)
}

// write prints the report: commented human-readable lines, then the
// result as one JSON object on the last line.
func (r report) write(w io.Writer, opt options, h host) error {
	fmt.Fprintf(w, "# o2perf %s seed=%d passes=%d traced_passes=%d\n", r.workload, opt.seed, len(r.untraced), len(r.traced))
	fmt.Fprintf(w, "# host %s\n", h)
	fmt.Fprintf(w, "# %-32s %9s %9s  %-16s  %s\n", "cell", "setup_s", "drive_s", "digest", "simulated")
	first := r.untraced[0]
	for _, c := range first.Cells {
		fmt.Fprintf(w, "# %-32s %9.4f %9.4f  %-16s  %s\n", c.Name, c.SetupS, c.DriveS, c.Digest, simString(c.Sim))
	}
	for i, p := range r.passes {
		t := totals(p)
		fmt.Fprintf(w, "# pass %d traced=%t setup_s %.4f drive_s %.4f\n", i, p.Traced, t.setup, t.drive)
	}
	if s := speedups(first); s != "" {
		fmt.Fprintf(w, "# coretime gain over thread-scheduler: %s\n", s)
	}
	switch {
	case opt.smoke:
	case r.committed:
		fmt.Fprintf(w, "# digests compared with the ones committed for seed %d\n", opt.seed)
	default:
		fmt.Fprintf(w, "# no digests committed for seed %d; compare the ones above between commits\n", opt.seed)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAILED %s\n", p)
	}
	fmt.Fprintf(w, "# failed_frac %g (%d of %d cells)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)

	for _, d := range endToEnd {
		fmt.Fprintf(w, "# %-22s %14.6g %s\n", d.name, r.endToEnd[d.name], d.unit)
	}
	defs, values := endToEnd, r.endToEnd
	if opt.trace {
		defs, values = perLayer, r.perLayer
		for _, l := range profile.Layers {
			fmt.Fprintf(w, "#   drive self time %-10s %9.4f s/pass\n", l, r.layerS[l])
		}
		for _, d := range perLayer {
			fmt.Fprintf(w, "# %-22s %14.6g %s\n", d.name, r.perLayer[d.name], d.unit)
		}
		fmt.Fprintf(w, "# %-22s %14.6g cycles (DRAM and link queueing; no metric)\n", "machine.queue_cycles", r.perLayer["machine.queue_cycles"])
	}
	metrics := map[string]jsonMetric{}
	for _, d := range defs {
		metrics[d.name] = jsonMetric{Value: values[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
	if err != nil {
		return fmt.Errorf("%s: %w", r.workload, err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func simString(sim map[string]float64) string {
	var parts []string
	for _, k := range sortedKeys(sim) {
		parts = append(parts, fmt.Sprintf("%s=%.6g", k, sim[k]))
	}
	return strings.Join(parts, " ")
}

// speedups pairs each point's two scheduler cells and gives CoreTime's
// gain at each: the throughput ratio, or for the open-loop services the
// p99 latency ratio thread-scheduler ÷ CoreTime.
func speedups(p pass) string {
	byName := map[string]cellRun{}
	var points []string
	for _, c := range p.Cells {
		byName[c.Name] = c
		if point, ok := strings.CutSuffix(c.Name, "coretime"); ok {
			points = append(points, point)
		}
	}
	var parts []string
	for _, point := range points {
		base, ok := byName[point+"thread-scheduler"]
		if !ok || base.Sim == nil || byName[point+"coretime"].Sim == nil {
			continue
		}
		basis, x := gain(base.Sim, byName[point+"coretime"].Sim)
		label := strings.TrimSuffix(point, "/")
		if label == "" {
			label = basis
		}
		parts = append(parts, fmt.Sprintf("%s %.3fx", label, x))
	}
	return strings.Join(parts, "  ")
}

func gain(base, ct map[string]float64) (string, float64) {
	if b, ok := base["p99_cycles"]; ok {
		return "p99", ratio(b, ct["p99_cycles"])
	}
	for _, k := range []string{"kres_per_sec", "kops_per_sec"} {
		if b, ok := base[k]; ok {
			return k, ratio(ct[k], b)
		}
	}
	return "", 0
}

// span is one Chrome trace event.
type span struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// workloadSpans lays the traced passes out as workload → cell →
// {setup, drive, check} spans on one track per workload, with each cell's
// registry readings as its arguments. Times are host microseconds since
// the child started.
func workloadSpans(pid int, name string, cr childResult) []span {
	spans := []span{{Name: "process_name", Ph: "M", Pid: pid, Tid: 1, Args: map[string]any{"name": name}}}
	us := func(s float64) float64 { return s * 1e6 }
	x := func(name string, from, to float64, args map[string]any) span {
		return span{Name: name, Ph: "X", Ts: us(from), Dur: us(to - from), Pid: pid, Tid: 1, Args: args}
	}
	for i, p := range cr.Passes {
		if !p.Traced || len(p.Cells) == 0 {
			continue
		}
		spans = append(spans, x(name, p.Cells[0].Start, p.Cells[len(p.Cells)-1].End, map[string]any{"pass": i}))
		for _, c := range p.Cells {
			args := map[string]any{"seed": c.Seed, "digest": c.Digest}
			for k, v := range c.Metrics {
				args[k] = v
			}
			spans = append(spans,
				x(c.Name, c.Start, c.End, args),
				x("setup", c.Start, c.SetupEnd, nil),
				x("drive", c.DriveStart, c.DriveEnd, nil),
				x("check", c.DriveEnd, c.End, nil))
		}
	}
	return spans
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": spans, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
