package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Detrand forbids nondeterministic entropy sources in result-producing
// packages (internal/sim, internal/stats, internal/workload, o2):
//
//   - wall-clock time (time.Now, time.Since, timers): simulated time comes
//     from sim.Engine, and a run's results must not depend on when or how
//     fast the host executes it;
//   - the global math/rand and math/rand/v2 sources: they are process-wide
//     and auto-seeded, so two runs — or two sweep cells sharing the
//     process — would not be reproducible;
//   - RNG construction whose seed does not flow from the run's threaded
//     seed: every generator must be seeded via stats.DeriveSeed/o2.DeriveSeed,
//     split from an existing generator, or handed a value that carries the
//     configured seed (o2.WithSeed / RunParams.Seed / a *seed*-named
//     value). A hard-coded seed is deterministic but silently decouples the
//     component from the seed the user configured, so sweep cells and
//     repeats stop varying.
//
// Suppress a finding with //o2:allow detrand "justification" on the same
// or the preceding line.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc:  "forbid wall-clock time and unseeded RNG construction in result-producing packages",
	Run:  runDetrand,
}

// forbiddenTimeFuncs are the wall-clock entry points of package time.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// randConstructors are the math/rand{,/v2} functions that build a private
// generator; they are legal, but their seed arguments are checked by the
// seed-flow rule. Every other package-level function of those packages
// draws from the global source and is forbidden outright.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// rngPackages are packages whose types are themselves generators: a method
// call on one of their types derives fresh entropy from an already-seeded
// generator, which satisfies the seed-flow rule.
var rngPackages = map[string]bool{
	"math/rand": true, "math/rand/v2": true, "repro/internal/stats": true,
}

func runDetrand(pass *Pass) error {
	if !resultPackages[pass.Pkg.Path()] {
		return nil
	}
	pass.checkDirectiveJustifications("allow", "detrand")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				checkForbiddenRef(pass, n)
			case *ast.CallExpr:
				checkSeedFlow(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkForbiddenRef flags any mention — call or value — of a wall-clock
// function or a global-source math/rand function.
func checkForbiddenRef(pass *Pass, id *ast.Ident) {
	f, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || hasReceiver(f) {
		return
	}
	switch pkgPathOf(f) {
	case "time":
		if !forbiddenTimeFuncs[f.Name()] || pass.suppressed(id.Pos(), "allow", "detrand") {
			return
		}
		pass.Reportf(id.Pos(), "time.%s reads the wall clock; simulated time must come from sim.Engine so results are reproducible", f.Name())
	case "math/rand", "math/rand/v2":
		if randConstructors[f.Name()] || pass.suppressed(id.Pos(), "allow", "detrand") {
			return
		}
		pass.Reportf(id.Pos(), "%s.%s draws from the process-global source; construct a generator from the run seed instead (stats.NewRNG(stats.DeriveSeed(...)))", pkgPathOf(f), f.Name())
	}
}

// seededConstructors maps RNG constructors to whether their arguments are
// seed values subject to the seed-flow rule. rand.New and rand.NewZipf
// take an already-built source/generator, which is checked at its own
// construction site.
func isSeededConstructor(f *types.Func) bool {
	switch pkgPathOf(f) {
	case "math/rand", "math/rand/v2":
		return f.Name() == "NewSource" || f.Name() == "NewPCG" || f.Name() == "NewChaCha8"
	case "repro/internal/stats", "repro/o2":
		return f.Name() == "NewRNG"
	}
	return false
}

// checkSeedFlow enforces the seed-flow rule on RNG constructor calls: at
// least one argument must visibly derive from the run seed.
func checkSeedFlow(pass *Pass, call *ast.CallExpr) {
	f := calleeFunc(pass.Info, call)
	if f == nil || !isSeededConstructor(f) || len(call.Args) == 0 {
		return
	}
	// Inside internal/stats itself NewRNG is the primitive being built;
	// its own helpers (Split) legitimately wrap raw generator output.
	for _, arg := range call.Args {
		if seedFlows(pass, arg) {
			return
		}
	}
	if pass.suppressed(call.Pos(), "allow", "detrand") {
		return
	}
	pass.Reportf(call.Pos(), "%s.%s seed does not flow from the run seed: derive it with stats.DeriveSeed/o2.DeriveSeed, split an existing generator, or thread a *Seed*-named value from o2.WithSeed", f.Pkg().Name(), f.Name())
}

// seedFlows reports whether the expression visibly carries the run seed:
// it contains a call to a seed-derivation function, a method call on an
// existing generator, or an identifier/field whose name says it is a seed.
func seedFlows(pass *Pass, e ast.Expr) bool {
	flows := false
	ast.Inspect(e, func(n ast.Node) bool {
		if flows {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			f := calleeFunc(pass.Info, n)
			if f == nil {
				return true
			}
			switch f.Name() {
			case "DeriveSeed":
				if p := pkgPathOf(f); p == "repro/internal/stats" || p == "repro/o2" {
					flows = true
				}
			}
			if hasReceiver(f) && rngPackages[pkgPathOf(f)] {
				flows = true // drawing from an already-seeded generator
			}
		case *ast.Ident:
			if strings.Contains(strings.ToLower(n.Name), "seed") {
				flows = true
			}
		}
		return !flows
	})
	return flows
}
