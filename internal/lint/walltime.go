package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// WalltimeAnalyzer forbids wall-clock reads in deterministic packages.
//
// The fleet's headline guarantee — bit-identical output at any -workers
// count — holds only because nothing on the simulation path observes
// real time: the event kernels run on eventsim's virtual clock, and
// every float that reaches an aggregate derives from (seed, labels).
// One stray time.Now() in a reduce or kernel path silently breaks the
// contract until a golden flakes. The telemetry/trace/progress call
// sites in internal/fleet are wall-clock by design (strictly out of
// band); each carries //powifi:walltime-ok <reason>.
var WalltimeAnalyzer = &analysis.Analyzer{
	Name: "walltime",
	Doc: "forbid time.Now/Since/Sleep and timer construction in deterministic packages\n\n" +
		"Deterministic packages (the event kernels and everything feeding the\n" +
		"bit-identical fleet aggregates) must not observe the wall clock.\n" +
		"Escape hatch: //powifi:walltime-ok <reason> on the offending line or\n" +
		"the line above.",
	Run: runWalltime,
}

// walltimeBanned are the package-time functions that observe or depend
// on the wall clock. Pure constructors/arithmetic (time.Duration math,
// time.Date, time.Unix) stay legal — they are deterministic.
var walltimeBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

func runWalltime(pass *analysis.Pass) (any, error) {
	if !isDetPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	dirs := parseDirectives(pass)
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		// Walking idents (not just selectors) catches dot-imported uses
		// of the banned functions too.
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			// Package-level functions only: methods like Timer.Reset are
			// reachable only through an already-flagged constructor.
			if _, isFunc := obj.(*types.Func); !isFunc || obj.Parent() != obj.Pkg().Scope() {
				return true
			}
			if !walltimeBanned[id.Name] {
				return true
			}
			if dirs.okAt(pass, f, id.Pos(), "walltime-ok") {
				return true
			}
			pass.Reportf(id.Pos(),
				"time.%s in deterministic package %s: wall-clock reads break the bit-identical "+
					"worker-invariance contract (annotate //powifi:walltime-ok <reason> if this is "+
					"genuinely out of band)", id.Name, pass.Pkg.Path())
			return true
		})
	}
	return nil, nil
}
