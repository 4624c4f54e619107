package o2

import "fmt"

// Experiment measures the directory-lookup workload on a fresh runtime per
// run, so scheduler configurations compare on identical machines and
// trees. A full Figure-4-style comparison is a few lines:
//
//	exp := o2.Experiment{
//		Machine: o2.AMD16,
//		Tree:    o2.DirSpec{Dirs: 64, EntriesPerDir: 1000},
//		Params:  o2.DefaultRunParams(),
//	}
//	base, ct, err := exp.Compare()
//	fmt.Printf("speedup %.2fx\n", ct.KResPerSec/base.KResPerSec)
type Experiment struct {
	// Machine is the simulated topology; the zero value means AMD16.
	Machine Topology
	// Tree sizes the directory tree.
	Tree DirSpec
	// Params drive the measurement; the zero value means
	// DefaultRunParams().
	Params RunParams
	// Options apply to every runtime the experiment builds, after
	// WithTopology(Machine) and before any per-run options.
	Options []Option
}

// runParams fills p's zero fields from DefaultRunParams field by field
// (RunParams.WithDefaults) and rejects a negative thread count. Run and
// DirLookupScenario share it, so Experiment.Compare and a sweep cell
// measuring the same configuration resolve identically by construction.
func runParams(p RunParams) (RunParams, error) {
	p = p.WithDefaults()
	if p.Threads <= 0 {
		return RunParams{}, fmt.Errorf("o2: RunParams.Threads must be positive, got %d", p.Threads)
	}
	return p, nil
}

// Run builds a fresh runtime from the experiment's options plus opts
// (later options win), builds the tree, and measures one run.
func (e Experiment) Run(opts ...Option) (Result, error) {
	params, err := runParams(e.Params)
	if err != nil {
		return Result{}, err
	}
	all := append([]Option{WithTopology(e.Machine.orDefault())}, e.Options...)
	all = append(all, opts...)
	rt, err := New(all...)
	if err != nil {
		return Result{}, err
	}
	tree, err := rt.NewDirTree(e.Tree)
	if err != nil {
		return Result{}, err
	}
	return tree.Run(params), nil
}

// Compare measures the experiment under the Baseline thread scheduler and
// under CoreTime (each on a fresh machine) and returns both results.
func (e Experiment) Compare() (base, coretime Result, err error) {
	if base, err = e.Run(WithScheduler(Baseline)); err != nil {
		return
	}
	coretime, err = e.Run(WithScheduler(CoreTime))
	return
}
