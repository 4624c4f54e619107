package o2

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/stats"
)

// Sweep is the Experiment layer's parameter-sweep engine: a declarative
// grid of configurations (the cross product of Axes applied to Base),
// executed by a bounded worker pool. Each grid cell runs Repeats times
// with a deterministic per-cell seed (see seed.go), and the repeats are
// aggregated into mean/stddev/min/max summaries per metric. A cell's
// repeats run sequentially on one worker sharing a cellArena, so
// scenarios reuse the built runtime across repeats instead of
// reallocating it. Results are independent of the worker count: the same
// Sweep with the same Seed produces byte-identical output at Workers=1
// and Workers=N.
//
// A Figure-4-style comparison of two schedulers on one tree:
//
//	sw := o2.Sweep{
//		Base: o2.Cell{Machine: o2.AMD16, Scenario: o2.DirLookupScenario{
//			Tree: o2.DirSpec{Dirs: 224, EntriesPerDir: 1000}, Params: o2.DefaultRunParams()}},
//		Axes: []o2.Axis{{Name: "scheduler", Values: []o2.AxisValue{
//			{Label: "thread-scheduler", Apply: func(c *o2.Cell) { c.Scheduler = o2.Baseline }},
//			{Label: "coretime", Apply: func(c *o2.Cell) { c.Scheduler = o2.CoreTime }},
//		}}},
//		Repeats: 3,
//		Workers: 8,
//	}
//	res, err := sw.Run()
type Sweep struct {
	// Name labels the sweep in reports and JSON output.
	Name string
	// Base is the configuration template every cell starts from; axis
	// values edit copies of it. Its Index/Coords/Labels/Repeat/Seed
	// fields are overwritten by the engine.
	Base Cell
	// Axes span the grid. With no axes the sweep has exactly one cell:
	// Base itself. Cells are enumerated row-major, last axis fastest.
	Axes []Axis
	// Repeats is how many times each cell is measured, each repeat on a
	// fresh runtime with its own derived seed; values < 1 mean 1.
	Repeats int
	// Workers bounds the worker pool; 0 means runtime.NumCPU().
	Workers int
	// Seed is the base seed every per-cell seed derives from.
	Seed uint64
	// Runner, when set, measures one repeat of one cell in place of the
	// cell's Scenario; figures that measure something other than a
	// scenario's standard metrics install their own. Nil measures
	// Cell.Scenario.
	Runner func(Cell) (Metrics, error)
	// Progress, when non-nil, receives one line per completed cell.
	// Lines appear in completion order, so they may be out of grid order
	// when Workers > 1.
	Progress io.Writer
}

// Axis is one dimension of a sweep grid: an ordered set of values, each of
// which edits the cell under construction. The presets build theirs with
// this package's axis helpers; a caller's axes are Axis literals with
// arbitrary Apply functions.
type Axis struct {
	Name   string
	Values []AxisValue
}

// AxisValue is one point on an axis.
type AxisValue struct {
	// Label identifies the value in results and progress lines.
	Label string
	// Apply edits the cell to select this value.
	Apply func(*Cell)
}

// topologyAxis sweeps over simulated machines.
func topologyAxis(tops ...Topology) Axis {
	vals := make([]AxisValue, len(tops))
	for i, t := range tops {
		vals[i] = AxisValue{Label: t.Name(), Apply: func(c *Cell) { c.Machine = t }}
	}
	return Axis{Name: "machine", Values: vals}
}

// schedulerAxis sweeps over scheduling policies.
func schedulerAxis(scheds ...Scheduler) Axis {
	vals := make([]AxisValue, len(scheds))
	for i, sc := range scheds {
		vals[i] = AxisValue{Label: sc.String(), Apply: func(c *Cell) { c.Scheduler = sc }}
	}
	return Axis{Name: "scheduler", Values: vals}
}

// dirCountAxis sweeps the directory tree's size: one value per directory
// count, each entriesPerDir entries — the x-axis of Figure 4.
func dirCountAxis(entriesPerDir int, counts ...int) Axis {
	vals := make([]AxisValue, len(counts))
	for i, n := range counts {
		vals[i] = AxisValue{
			Label: fmt.Sprintf("%d", n),
			Apply: editScenario("dirs", func(s *DirLookupScenario) {
				s.Tree = DirSpec{Dirs: n, EntriesPerDir: entriesPerDir}
			}),
		}
	}
	return Axis{Name: "dirs", Values: vals}
}

// Cell is one fully resolved configuration of a sweep grid: what a Runner
// receives. The engine fills the identity fields (Index, Coords, Labels,
// Repeat, Seed); axes fill the configuration fields from Base.
type Cell struct {
	// Index is the cell's row-major position in the grid.
	Index int
	// Coords are the per-axis value indices selecting this cell.
	Coords []int
	// Labels are the per-axis value labels, parallel to Coords.
	Labels []string
	// Repeat is which repetition this measurement is (0-based).
	Repeat int
	// Seed is the measurement's seed, derived from the sweep's Seed,
	// Index, and Repeat alone. Every scenario installs it as the
	// runtime's seed and as its workload's seed.
	Seed uint64

	// Machine is the simulated topology; the zero value means AMD16.
	Machine Topology
	// Scheduler is the scheduling policy (default CoreTime). It is
	// authoritative: every scenario applies it after Options. Axes that
	// select schedulers or placement policies set this field.
	Scheduler Scheduler
	// Scenario is the workload the cell measures: a DirLookupScenario,
	// a WebScenario, or one of the presets' unexported scenarios. A sweep
	// without a Runner measures it.
	Scenario Scenario
	// Options apply to the runtime after WithTopology/WithSeed.
	Options []Option

	// arena carries reusable runtime state between the sequential repeats
	// of one cell (see cellArena). The sweep engine installs it; scenarios
	// reuse the built runtime across repeats, and runners that ignore it
	// keep building fresh runtimes. Nil for cells run outside a sweep.
	arena *cellArena
}

// measure measures the cell's scenario.
func (c Cell) measure() (Metrics, error) {
	if c.Scenario == nil {
		return nil, fmt.Errorf("o2: cell has neither a Runner nor a Scenario")
	}
	return c.Scenario.measure(c)
}

// Scenario is the workload of a sweep cell, able to measure itself on
// the cell's machine, scheduler, options, and seed: DirLookupScenario,
// WebScenario, or one of the presets' unexported scenarios (the KV
// store's, the ablations'). Every scenario builds its runtime through scenarioForCell,
// so all share one precedence rule and arena reuse.
type Scenario interface {
	measure(c Cell) (Metrics, error)
}

// Metrics is one measurement's named values. Each scenario reports its
// own set — DirLookupScenario "kres_per_sec", "resolutions", and
// "migrations" — and custom runners may report anything.
type Metrics map[string]float64

// DirLookupScenario is the paper's directory-lookup workload (Figure 4):
// Tree is built once per cell and measured under Params, whose zero
// fields are defaulted as in Experiment.Run. The cell seed becomes
// Params.Seed, so a cell measures exactly what Experiment.Run measures
// at that seed.
type DirLookupScenario struct {
	Tree   DirSpec
	Params RunParams
}

func (s DirLookupScenario) measure(c Cell) (Metrics, error) {
	// Seed before defaulting: WithDefaults keeps a partly set RunParams
	// field by field, where an all-zero one becomes DefaultRunParams.
	s.Params.Seed = c.Seed
	params, err := runParams(s.Params)
	if err != nil {
		return nil, err
	}
	tree, err := scenarioForCell(c, func(rt *Runtime) (*DirTree, error) {
		return rt.NewDirTree(s.Tree)
	})
	if err != nil {
		return nil, err
	}
	res := tree.Run(params)
	return Metrics{
		"kres_per_sec": res.KResPerSec,
		"resolutions":  float64(res.Resolutions),
		"migrations":   float64(res.Migrations),
	}, nil
}

// editScenario returns the Apply of a scenario axis value: edit the
// cell's scenario when it is an S. Any other scenario becomes an
// axisMismatch naming the axis, so a sweep whose axis cannot edit its
// cells fails instead of measuring unchanged cells under the axis's
// labels.
func editScenario[S Scenario](axis string, edit func(*S)) func(*Cell) {
	return func(c *Cell) {
		if _, bad := c.Scenario.(axisMismatch); bad {
			return // keep the first mismatch
		}
		sc, ok := c.Scenario.(S)
		if !ok {
			c.Scenario = axisMismatch{axis: axis, found: c.Scenario}
			return
		}
		edit(&sc)
		c.Scenario = sc
	}
}

// axisMismatch is the scenario editScenario leaves on a cell whose
// scenario the axis does not apply to; measuring it fails.
type axisMismatch struct {
	axis  string
	found Scenario
}

func (m axisMismatch) measure(Cell) (Metrics, error) {
	return nil, fmt.Errorf("o2: axis %q does not apply to scenario %T", m.axis, m.found)
}

// Aggregate summarises one metric across a cell's repeats.
type Aggregate struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// CellResult is one cell's measurements: the raw per-repeat metrics (in
// repeat order) and their aggregates.
type CellResult struct {
	Index  int       `json:"index"`
	Labels []string  `json:"labels"`
	Coords []int     `json:"coords"`
	Seeds  []uint64  `json:"seeds"`
	Runs   []Metrics `json:"runs"`

	// Stats aggregates each metric over the cell's repeats.
	Stats map[string]Aggregate `json:"stats"`
}

// Mean returns the mean of the named metric across repeats (0 when the
// metric was not reported).
func (c *CellResult) Mean(metric string) float64 { return c.Stats[metric].Mean }

// Stddev returns the sample standard deviation of the named metric.
func (c *CellResult) Stddev(metric string) float64 { return c.Stats[metric].Stddev }

// SweepResult is a completed sweep. It deliberately records nothing about
// the execution (worker count, wall-clock): two runs of the same sweep at
// different -workers marshal to identical JSON.
type SweepResult struct {
	Name    string       `json:"name"`
	Axes    []string     `json:"axes"`
	Repeats int          `json:"repeats"`
	Seed    uint64       `json:"seed"`
	Cells   []CellResult `json:"cells"`
}

// Cell returns the result whose labels match the given per-axis labels in
// axis order, or nil when absent.
func (r *SweepResult) Cell(labels ...string) *CellResult {
outer:
	for i := range r.Cells {
		c := &r.Cells[i]
		if len(c.Labels) != len(labels) {
			continue
		}
		for j := range labels {
			if c.Labels[j] != labels[j] {
				continue outer
			}
		}
		return c
	}
	return nil
}

// WriteJSON marshals the result as indented JSON. Metric keys marshal in
// sorted order, so the byte stream is stable — the schema the o2bench
// golden test pins.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// cells expands the grid row-major (last axis fastest).
func (s Sweep) cells() []Cell {
	total := 1
	for _, a := range s.Axes {
		total *= len(a.Values)
	}
	out := make([]Cell, 0, total)
	coords := make([]int, len(s.Axes))
	for idx := 0; idx < total; idx++ {
		c := s.Base
		c.Index = idx
		c.Coords = append([]int(nil), coords...)
		c.Labels = make([]string, len(s.Axes))
		// Copy with exact capacity so axis Apply appends cannot alias
		// the base slice across cells.
		c.Options = append(make([]Option, 0, len(s.Base.Options)), s.Base.Options...)
		for ai, a := range s.Axes {
			v := a.Values[coords[ai]]
			c.Labels[ai] = v.Label
			if v.Apply != nil {
				v.Apply(&c)
			}
		}
		out = append(out, c)
		for ai := len(coords) - 1; ai >= 0; ai-- {
			coords[ai]++
			if coords[ai] < len(s.Axes[ai].Values) {
				break
			}
			coords[ai] = 0
		}
	}
	return out
}

// runner returns what measures one repeat of a cell: the sweep's Runner,
// or else the cell's own Scenario.
func (s Sweep) runner() func(Cell) (Metrics, error) {
	if s.Runner != nil {
		return s.Runner
	}
	return Cell.measure
}

// runRecovered measures one repeat, turning a panic — the runner's own or
// a simulated thread's, which its coroutine re-raises through Run — into
// the repeat's error.
func runRecovered(run func(Cell) (Metrics, error), c Cell) (m Metrics, err error) {
	defer func() {
		if p := recover(); p != nil {
			m, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return run(c)
}

// Run executes the sweep and returns the aggregated results. Cells are
// distributed over the worker pool and each cell's repeats run
// sequentially on its worker; every measurement is seeded with its
// cellSeed and no state — RNG, caches, machine counters — is shared between
// concurrent measurements (repeats of one cell share an arena, but only
// after the previous repeat has fully drained). A panicking repeat fails
// like an erroring one, and the first failure (in grid order,
// independent of scheduling) aborts the result, naming the cell, repeat,
// and seed that reproduce it.
func (s Sweep) Run() (*SweepResult, error) {
	for _, a := range s.Axes {
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("o2: Sweep %q axis %q has no values", s.Name, a.Name)
		}
	}
	repeats := s.Repeats
	if repeats < 1 {
		repeats = 1
	}
	cells := s.cells()
	run := s.runner()
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	jobs := make(chan int)
	runs := make([][]Metrics, len(cells))
	seeds := make([][]uint64, len(cells))
	errs := make([][]error, len(cells))
	remaining := make([]int, len(cells))
	for i := range cells {
		runs[i] = make([]Metrics, repeats)
		seeds[i] = make([]uint64, repeats)
		errs[i] = make([]error, repeats)
		remaining[i] = repeats
	}

	var mu sync.Mutex // guards remaining and Progress
	cellDone := func(ci int) {
		mu.Lock()
		defer mu.Unlock()
		remaining[ci]--
		if remaining[ci] != 0 || s.Progress == nil {
			return
		}
		line := fmt.Sprintf("cell %d/%d", ci+1, len(cells))
		for ai, a := range s.Axes {
			line += fmt.Sprintf("  %s=%s", a.Name, cells[ci].Labels[ai])
		}
		if m := runs[ci][0]; m != nil {
			if v, ok := m["kres_per_sec"]; ok {
				line += fmt.Sprintf("  kres/s %.0f", v)
			}
		}
		fmt.Fprintln(s.Progress, line)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range jobs {
				// A cell's repeats run sequentially on one worker so they
				// can share an arena: the first repeat builds the runtime
				// and scenario, later repeats reset and reuse them.
				// Determinism is unaffected — each repeat's behavior is a
				// pure function of its cellSeed either way.
				arena := &cellArena{}
				for r := 0; r < repeats; r++ {
					c := cells[ci]
					c.Repeat = r
					c.Seed = cellSeed(s.Seed, c.Index, r)
					c.arena = arena
					m, err := runRecovered(run, c)
					runs[ci][r] = m
					seeds[ci][r] = c.Seed
					errs[ci][r] = err
					if err != nil {
						// A failed repeat may leave the arena half-built
						// or its threads stranded mid-run: stop them, and
						// give the next repeat a clean slate.
						arena.close()
						arena = &cellArena{}
					}
					cellDone(ci)
				}
			}
		}()
	}
	for ci := range cells {
		jobs <- ci
	}
	close(jobs)
	wg.Wait()

	// Report the first failure in grid order, not completion order, so
	// the error a caller sees does not depend on the worker count.
	for ci := range cells {
		for r := 0; r < repeats; r++ {
			if err := errs[ci][r]; err != nil {
				return nil, fmt.Errorf("o2: sweep %q cell %d %v repeat %d seed %d: %w",
					s.Name, ci, cells[ci].Labels, r, seeds[ci][r], err)
			}
		}
	}

	res := &SweepResult{
		Name:    s.Name,
		Axes:    make([]string, len(s.Axes)),
		Repeats: repeats,
		Seed:    s.Seed,
	}
	for i, a := range s.Axes {
		res.Axes[i] = a.Name
	}
	for ci, c := range cells {
		cr := CellResult{
			Index:  c.Index,
			Labels: c.Labels,
			Coords: c.Coords,
			Seeds:  seeds[ci],
			Runs:   runs[ci],
			Stats:  map[string]Aggregate{},
		}
		// Aggregate in repeat order — not completion order — so the
		// floating-point accumulation is identical at any worker count.
		byMetric := map[string][]float64{}
		for _, m := range runs[ci] {
			for name, v := range m {
				byMetric[name] = append(byMetric[name], v)
			}
		}
		for name, xs := range byMetric {
			sum := stats.Summarize(xs)
			cr.Stats[name] = Aggregate{
				N:      int(sum.N()),
				Mean:   sum.Mean(),
				Stddev: sum.Stddev(),
				Min:    sum.Min(),
				Max:    sum.Max(),
			}
		}
		res.Cells = append(res.Cells, cr)
	}
	return res, nil
}
