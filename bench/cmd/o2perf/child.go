package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"repro/bench/internal/profile"
	"repro/o2"
)

// childConfig is what the parent hands a child on its standard input.
type childConfig struct {
	Workload string
	Seed     uint64
	// Seconds is the measuring time; passes repeat until it is spent, and
	// at least one runs. A traced run spends one untraced pass of it, for
	// the tracing overhead, and the rest on traced passes.
	Seconds  float64
	Trace    bool
	TraceDir string
	// Smoke shrinks every workload to a test-only size.
	Smoke bool
}

// childResult is what a child writes to its standard output.
type childResult struct {
	Passes     []pass
	GoMaxProcs int
	// LayerNanos is the drive phases' CPU time in the traced passes,
	// attributed to layers by profile.Layer.
	LayerNanos map[string]int64
}

type pass struct {
	Traced bool
	Cells  []cellRun
}

// cellRun is one cell's measurements. Times are host seconds; the span
// marks are seconds since the child started.
type cellRun struct {
	Name       string
	Seed       uint64
	SetupS     float64
	DriveS     float64
	AllocBytes uint64 // heap bytes the build and the drive allocated
	Digest     string
	Err        string
	// Metrics are the runtime's registry readings after the drive.
	Metrics map[string]float64
	Sim     map[string]float64

	Start, SetupEnd, DriveStart, DriveEnd, End float64
}

// profileHz is the drive profiles' sampling rate. runtime/pprof asks for
// 100 Hz, which leaves a layer of one percent a handful of samples per
// drive; setting the rate first makes the runtime keep this one, at the
// price of a complaint on standard error that the parent drops.
const profileHz = 1000

// profileRateComplaint is the line the runtime prints when
// pprof.StartCPUProfile finds the rate already set.
const profileRateComplaint = "runtime: cannot set cpu profile rate until previous profile has finished."

// runChild measures one workload in this process and reports to out.
func runChild(cfg childConfig, out io.Writer) error {
	w, ok := findWorkload(cfg.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	c := &child{cfg: cfg, w: w, cells: w.cells(cfg.Smoke), epoch: time.Now(),
		res: childResult{GoMaxProcs: runtime.GOMAXPROCS(0), LayerNanos: map[string]int64{}}}
	budget := cfg.Seconds
	if cfg.Trace {
		start := time.Now()
		p, err := c.pass(false)
		if err != nil {
			return err
		}
		c.res.Passes = append(c.res.Passes, p)
		budget -= time.Since(start).Seconds()
	}
	if err := c.passes(cfg.Trace, budget); err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(c.res)
}

type child struct {
	cfg   childConfig
	w     workload
	cells []cell
	epoch time.Time
	res   childResult
}

// passes runs passes until budget seconds are spent, stopping early when
// another pass would more likely overshoot the budget than not.
func (c *child) passes(traced bool, budget float64) error {
	start := time.Now()
	for n := 1; ; n++ {
		p, err := c.pass(traced)
		if err != nil {
			return err
		}
		c.res.Passes = append(c.res.Passes, p)
		spent := time.Since(start).Seconds()
		if spent+spent/float64(n)/2 >= budget {
			return nil
		}
	}
}

func (c *child) pass(traced bool) (pass, error) {
	p := pass{Traced: traced}
	for i, cl := range c.cells {
		run, err := c.cell(i, cl, traced)
		if err != nil {
			return pass{}, err
		}
		p.Cells = append(p.Cells, run)
	}
	return p, nil
}

// cell builds and drives one cell. Errors the cell itself produces are
// recorded in the run; only harness failures (profiling) are returned.
func (c *child) cell(i int, cl cell, traced bool) (cellRun, error) {
	run := cellRun{Name: cl.name, Seed: o2.DeriveSeed(c.cfg.Seed, uint64(i))}
	run.Start = c.since()
	// Every build starts from a collected heap whose free pages went back
	// to the OS: garbage left by the previous cell is not collected on its
	// clock, every build faults its memory in alike, and the child's peak
	// RSS is one cell's footprint rather than an accident of when the
	// runtime returned earlier pages.
	debug.FreeOSMemory()
	a0 := heapAllocs()
	t0 := time.Now()
	rt, drive, err := cl.build(run.Seed)
	run.SetupS = time.Since(t0).Seconds()
	a1 := heapAllocs()
	run.SetupEnd = c.since()
	if err != nil {
		run.Err = fmt.Sprintf("build: %v", err)
		run.End = run.SetupEnd
		return run, nil
	}

	var prof bytes.Buffer
	if traced {
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return cellRun{}, err
		}
	}
	var out outcome
	a2 := heapAllocs()
	run.DriveStart = c.since()
	t2 := time.Now()
	if traced {
		labels := pprof.Labels("workload", c.w.name, "cell", cl.name, "phase", "drive")
		pprof.Do(context.Background(), labels, func(context.Context) { out, err = drive() })
	} else {
		out, err = drive()
	}
	run.DriveS = time.Since(t2).Seconds()
	run.DriveEnd = c.since()
	a3 := heapAllocs()
	run.AllocBytes = (a1 - a0) + (a3 - a2)
	if traced {
		pprof.StopCPUProfile()
		if err := c.attribute(i, cl.name, prof.Bytes()); err != nil {
			return cellRun{}, err
		}
	}

	if err != nil {
		run.Err = fmt.Sprintf("drive: %v", err)
	} else {
		snap := rt.Metrics()
		run.Metrics = make(map[string]float64, len(snap))
		for _, m := range snap {
			run.Metrics[m.Name] = m.Value
		}
		run.Sim = out.sim
		run.Digest, err = digest(out.result, snap)
		switch {
		case err != nil:
			run.Err = err.Error()
		case out.accounting != nil:
			run.Err = out.accounting.Error()
		}
	}
	run.End = c.since()
	return run, nil
}

// attribute adds a drive's profile to the layer totals and keeps it as
// DIR/<workload>/<NN>-<cell>.pprof, so the files hold the last traced
// pass.
func (c *child) attribute(i int, name string, prof []byte) error {
	samples, err := profile.Parse(bytes.NewReader(prof))
	if err != nil {
		return err
	}
	for layer, ns := range profile.SelfTime(samples) {
		c.res.LayerNanos[layer] += ns
	}
	dir := filepath.Join(c.cfg.TraceDir, c.w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file := fmt.Sprintf("%02d-%s.pprof", i, strings.ReplaceAll(name, "/", "-"))
	return os.WriteFile(filepath.Join(dir, file), prof, 0o644)
}

func (c *child) since() float64 { return time.Since(c.epoch).Seconds() }

// heapAllocs returns the bytes allocated on the heap so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
