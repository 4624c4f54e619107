package o2

// The presets: every scenario of the paper's evaluation as `o2bench`
// runs it, at full and at reduced scale, with its report. A preset's
// configuration lives here, next to the sweep it builds; callers choose a
// preset by name, set the sweep's seed, workers, and repeats, run it, and
// hand the result back to the preset to render.

import (
	"fmt"
	"io"
	"strings"
)

// Preset is one named scenario of the evaluation: a sweep at full or
// reduced scale, and the report that renders its result. Presets and
// Ablations list every preset; no other package can define one.
type Preset struct {
	Name  string
	Usage string // one-line description, for `o2bench help`

	build  func(quick bool) (title string, sw Sweep)
	render renderFunc
}

// renderFunc writes a completed run of sw as an aligned table under
// title, or as CSV.
type renderFunc func(w io.Writer, title string, sw Sweep, res *SweepResult, csv bool) error

// Build returns the preset's report title and the sweep to run, reduced
// when quick is set. The caller sets the sweep's Seed, Workers, Repeats,
// and Progress.
func (p Preset) Build(quick bool) (title string, sw Sweep) { return p.build(quick) }

// Render writes the result res of sw, a sweep this preset built, as an
// aligned table under title, or as CSV when csv is set.
func (p Preset) Render(w io.Writer, title string, sw Sweep, res *SweepResult, csv bool) error {
	return p.render(w, title, sw, res, csv)
}

// Presets returns the evaluation's sweep presets in report order: Fig.
// 4(a) and 4(b), then the kv, web, soak, and scale scenarios.
func Presets() []Preset {
	return []Preset{
		preset("fig4a", "Figure 4(a): uniform directory popularity",
			defaultFig4Config, quickFig4Config, fig4aSweep, renderFig4),
		preset("fig4b", "Figure 4(b): oscillating popularity",
			defaultFig4Config, quickFig4Config, fig4bSweep, renderFig4),
		preset("kv", "KVService scenario: placement policies on a sharded store",
			defaultKVConfig, quickKVConfig, kvSweep, columns(kvColumns)),
		preset("web", "WebService scenario: open-loop latency tails under background compaction",
			defaultWebConfig, quickWebConfig, webSweep, columns(webColumns)),
		preset("soak", "engine endurance: one million direct-handoff requests per cell",
			soakWebConfig, quickSoakWebConfig, soakSweep, columns(webColumns)),
		preset("scale", "big-machine sweep: 16-256 cores x service x policy, saturating NUMA bandwidth",
			defaultScaleConfig, quickScaleConfig, scaleSweep, columns(scaleColumns)),
	}
}

// preset is the preset that builds its sweep from the full or the quick
// configuration.
func preset[C any](name, usage string, full, quick func() C, build func(C) (string, Sweep), render renderFunc) Preset {
	return Preset{Name: name, Usage: usage, render: render, build: func(q bool) (string, Sweep) {
		if q {
			return build(quick())
		}
		return build(full())
	}}
}

// columns is the renderFunc of a report declared as a column list: one
// row per cell, as writeTable or writeCSV lays it out.
func columns(cols []column) renderFunc {
	return func(w io.Writer, title string, _ Sweep, res *SweepResult, csv bool) error {
		if csv {
			writeCSV(w, res, cols)
		} else {
			writeTable(w, title, res, cols)
		}
		return nil
	}
}

// column is how a column-list report renders one metric of every cell.
type column struct {
	name  string // CSV header, and the metric read unless value is set
	head  string // table header; "" keeps the column out of the table
	width int    // table width
	prec  int    // table decimals
	csv   int    // CSV decimals
	pct   bool   // the table shows the value ×100
	// spread, when set, is the CSV header of the metric's stddev; the
	// table shows it as ±stddev when the sweep carried repeats.
	spread string
	value  func(*CellResult) Aggregate
}

func (col *column) of(c *CellResult) Aggregate {
	if col.value != nil {
		return col.value(c)
	}
	return c.Stats[col.name]
}

// writeTable renders r as an aligned text table under a "# title" line:
// one row per cell, its axis labels followed by cols.
func writeTable(w io.Writer, title string, r *SweepResult, cols []column) {
	withStats := r.Repeats > 1
	var shown []column
	for _, col := range cols {
		if col.head != "" {
			shown = append(shown, col)
		}
	}
	fmt.Fprintf(w, "# %s\n", title)
	var line []string
	for _, ax := range r.Axes {
		line = append(line, fmt.Sprintf("%-16s", ax))
	}
	for _, col := range shown {
		width := col.width
		if withStats && col.spread != "" {
			width += 8 // the mean one wider, then " ±" and a 5-wide stddev
		}
		line = append(line, fmt.Sprintf("%*s", width, col.head))
	}
	fmt.Fprintln(w, strings.Join(line, " "))
	for i := range r.Cells {
		c := &r.Cells[i]
		line = line[:0]
		for _, l := range c.Labels {
			line = append(line, fmt.Sprintf("%-16s", l))
		}
		for _, col := range shown {
			a := col.of(c)
			if col.pct {
				a.Mean, a.Stddev = 100*a.Mean, 100*a.Stddev
			}
			if withStats && col.spread != "" {
				line = append(line, fmt.Sprintf("%*.*f ±%5.*f", col.width+1, col.prec, a.Mean, col.prec, a.Stddev))
			} else {
				line = append(line, fmt.Sprintf("%*.*f", col.width, col.prec, a.Mean))
			}
		}
		fmt.Fprintln(w, strings.Join(line, " "))
	}
}

// writeCSV emits the same cells as CSV for plotting: the axis labels, then
// every column, each spread column followed by its stddev.
func writeCSV(w io.Writer, r *SweepResult, cols []column) {
	head := append([]string(nil), r.Axes...)
	for _, col := range cols {
		head = append(head, col.name)
		if col.spread != "" {
			head = append(head, col.spread)
		}
	}
	fmt.Fprintln(w, strings.Join(head, ","))
	for i := range r.Cells {
		c := &r.Cells[i]
		row := append([]string(nil), c.Labels...)
		for _, col := range cols {
			a := col.of(c)
			row = append(row, fmt.Sprintf("%.*f", col.csv, a.Mean))
			if col.spread != "" {
				row = append(row, fmt.Sprintf("%.1f", a.Stddev))
			}
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}
