package o2

// The presets: every scenario of the paper's evaluation as `o2bench`
// runs it, at full and at reduced scale, with its report. A preset's
// configuration lives here, next to the sweep it builds; callers choose a
// preset by name, set the sweep's seed, workers, and repeats, run it, and
// hand the result back to the preset to render.

import "io"

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

// columns renders one row per cell through WriteTable and WriteCSV.
func columns(cols []Column) renderFunc {
	return func(w io.Writer, title string, _ Sweep, res *SweepResult, csv bool) error {
		if csv {
			res.WriteCSV(w, cols)
		} else {
			res.WriteTable(w, title, cols)
		}
		return nil
	}
}
