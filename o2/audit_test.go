package o2

import (
	"go/ast"
	"reflect"
	"slices"
	"testing"
)

// auditKind is how TestEveryOptionIsAccounted holds an option to account.
type auditKind int

const (
	// model: the row's cell measured with the option differs from the
	// cell measured without it.
	model auditKind = iota
	// observer: the option records what happened and changes no result.
	observer
	// pinnedNoOp: the option changes no result today; note names the
	// ROADMAP item that is to make it change one, which flips the row to
	// model.
	pinnedNoOp
)

// optionAudit accounts for one option.
type optionAudit struct {
	kind auditKind
	run  func(extra ...Option) (any, error) // measures the row's cell
	opt  Option
	note string
}

// auditCell returns a run that measures c with extra appended to its
// options, where they override both c's options and its axis values'.
func auditCell(c Cell) func(extra ...Option) (any, error) {
	return func(extra ...Option) (any, error) {
		c := c
		c.Options = append(slices.Clip(c.Options), extra...)
		m, err := c.measure()
		return m, err
	}
}

// auditRuntime returns a run that builds a Tiny8 runtime from extra and
// measures a small directory tree on it at the runtime's own seed: the
// path through which a program's New(options...) reaches the options a
// sweep cell overrides (WithTopology, WithSeed, WithScheduler).
func auditRuntime(extra ...Option) (any, error) {
	rt, err := New(append([]Option{WithTopology(Tiny8)}, extra...)...)
	if err != nil {
		return nil, err
	}
	tree, err := rt.NewDirTree(DirSpec{Dirs: 6, EntriesPerDir: 128})
	if err != nil {
		return nil, err
	}
	p := tinyFig4Config().Params
	p.Seed = 0 // draw the workload's streams from the runtime seed
	return tree.Run(p), nil
}

// mustCellAt is the cell of sw with the given axis labels.
func mustCellAt(t *testing.T, sw Sweep, labels ...string) Cell {
	t.Helper()
	c, ok := cellAt(sw, labels)
	if !ok {
		t.Fatalf("sweep %s has no cell %v", sw.Name, labels)
	}
	return c
}

// ablationSweep returns the sweep of the ablation named name.
func ablationSweep(t *testing.T, name string) Sweep {
	t.Helper()
	for _, a := range Ablations() {
		if a.Name == name {
			_, sw := a.Build(true)
			return sw
		}
	}
	t.Fatalf("no ablation %q", name)
	return Sweep{}
}

// TestEveryOptionIsAccounted is the knob audit: every top-level func of
// the package's source that returns an Option, exported or not, has a
// row saying why it exists — it changes a model result, it only
// observes, or it is a pinned no-op waiting on a named ROADMAP item. An
// option with no row, or a row whose claim no longer holds, fails.
func TestEveryOptionIsAccounted(t *testing.T) {
	_, fig4bSw := fig4bSweep(tinyFig4bConfig())
	fig4b := mustCellAt(t, fig4bSw, "24", "coretime")
	_, kvSw := kvSweep(tinyKVConfig())
	kv := mustCellAt(t, kvSw, "g95s4p1", "0", "coretime")
	a1, a2, a3, a4 := ablationSweep(t, "clustering"), ablationSweep(t, "replication"),
		ablationSweep(t, "replacement"), ablationSweep(t, "migcost")
	numa := Cell{Machine: numa64, Scenario: KVScenario{
		Spec: KVSpec{Shards: 64, SlotsPerShard: 32, SlotBytes: 64, Keys: 1 << 12},
		Load: KVLoad{Clients: 64, OpsPerClient: 30},
	}}

	rows := map[string]optionAudit{
		"WithTopology":             {kind: model, run: auditRuntime, opt: WithTopology(small4)},
		"WithScheduler":            {kind: model, run: auditRuntime, opt: WithScheduler(Baseline)},
		"WithSeed":                 {kind: model, run: auditRuntime, opt: WithSeed(99)},
		"WithRebalanceInterval":    {kind: model, run: auditCell(fig4b), opt: WithRebalanceInterval(0)},
		"WithDecayWindow":          {kind: model, run: auditCell(fig4b), opt: WithDecayWindow(0)},
		"WithMissThreshold":        {kind: model, run: auditCell(kv), opt: WithMissThreshold(16)},
		"withClustering":           {kind: model, run: auditCell(mustCellAt(t, a1, "off")), opt: withClustering(true)},
		"withReplication":          {kind: model, run: auditCell(mustCellAt(t, a2, "off")), opt: withReplication(true)},
		"withReplicationThreshold": {kind: model, run: auditCell(mustCellAt(t, a2, "on")), opt: withReplicationThreshold(64, 0.95)},
		"withReplacement":          {kind: model, run: auditCell(mustCellAt(t, a3, "first-fit")), opt: withReplacement(frequency)},
		"withDRAMUnplaceFraction":  {kind: model, run: auditCell(mustCellAt(t, a3, "first-fit")), opt: withDRAMUnplaceFraction(0.2)},
		"withMigrationCost":        {kind: model, run: auditCell(mustCellAt(t, a4, "550")), opt: withMigrationCost(8000)},
		"WithTrace":                {kind: observer, run: auditCell(fig4b), opt: WithTrace(1024)},
		"WithTelemetry":            {kind: observer, run: auditCell(fig4b), opt: WithTelemetry(50_000)},
		"withBandwidthAware": {kind: pinnedNoOp, run: auditCell(numa), opt: withBandwidthAware(),
			note: "ROADMAP, CoreTimeBW: make the signal fire, or delete it"},
	}

	declared := optionFuncs(t)
	for name := range declared {
		if _, ok := rows[name]; !ok {
			t.Errorf("%s has no row in the option audit", name)
		}
	}
	for name := range rows {
		if !declared[name] {
			t.Errorf("audit row %s names no option", name)
		}
	}

	for name, row := range rows {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			without, err := row.run()
			if err != nil {
				t.Fatal(err)
			}
			with, err := row.run(row.opt)
			if err != nil {
				t.Fatal(err)
			}
			switch same := reflect.DeepEqual(without, with); {
			case row.kind == model && same:
				t.Fatalf("%s changed no result of its cell: %+v", name, with)
			case row.kind != model && !same:
				t.Fatalf("%s changed a result:\nwithout %+v\nwith    %+v", name, without, with)
			}
		})
	}
}

// optionFuncs is the set of the package's top-level funcs, exported or
// not, whose one result is an Option.
func optionFuncs(t *testing.T) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	for _, f := range sourceFiles(t) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
				continue
			}
			if id, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && id.Name == "Option" {
				funcs[fn.Name.Name] = true
			}
		}
	}
	return funcs
}
