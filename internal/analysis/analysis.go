// Package analysis is simlint: a suite of static-analysis passes that
// enforce the contracts the test suite can only sample dynamically —
// byte-identical replay (the DESIGN.md determinism contract) and
// zero-alloc hot paths (the PR 7/PR 9 CI gates).
//
// The package mirrors the golang.org/x/tools/go/analysis shape (Analyzer,
// Pass, Diagnostic) but is self-contained on the standard library: the
// loader (load.go) shells out to `go list -export` and typechecks with
// the gc export-data importer, so the suite runs offline: from
// cmd/simlint, and over the whole tree from this package's own tests.
//
// Findings are suppressed line-by-line with the annotation vocabulary in
// annotations.go: `//simlint:allow <pass> <reason>` on (or immediately
// above) the offending line, and `//simlint:hotpath` to opt a function
// into the hot-path rules. DESIGN.md Sec. 14 documents the contract each
// pass enforces and how to add one.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named pass over a typechecked package.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in
	// `//simlint:allow <name> <reason>` annotations. It must be a valid
	// identifier.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Run inspects the package and reports findings via pass.Reportf.
	Run func(*Pass)
}

// A Pass carries one analyzer's view of one typechecked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	ann  *annotations
	sink *[]Diagnostic
}

// A Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless a matching
// `//simlint:allow <pass> <reason>` annotation suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.ann.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suite returns the simlint analyzers in reporting order. The annotation
// validator runs first so a malformed annotation is reported even when it
// would otherwise silently fail to suppress anything.
func Suite() []*Analyzer {
	return []*Analyzer{
		AnnotationAnalyzer,
		DeterminismAnalyzer,
		HotpathAnalyzer,
	}
}

// passNames is the annotation vocabulary: the set of names an allow
// annotation may target.
func passNames() map[string]bool {
	names := map[string]bool{}
	for _, a := range Suite() {
		names[a.Name] = true
	}
	return names
}

// RunSuite runs every analyzer over pkg and returns the surviving
// findings sorted by position, including unused-annotation findings: an
// allow annotation that suppressed nothing is itself an error, so stale
// suppressions cannot rot in the tree.
func RunSuite(pkg *Package) []Diagnostic {
	return runAnalyzers(pkg, Suite())
}

func runAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	ann := parseAnnotations(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			ann:       ann,
			sink:      &diags,
		}
		a.Run(pass)
	}
	diags = append(diags, ann.unused()...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// ---------------------------------------------------------------------
// Package scoping.
// ---------------------------------------------------------------------

// modulePrefix is the first-party import-path prefix the contracts
// govern.
const modulePrefix = "holdcsim/"

// modelPackages are the deterministic-model packages: everything that
// executes between Build and Collect must replay byte-identically, so
// the determinism pass bans wall clocks, global randomness, environment
// reads, and order-sensitive map iteration there. The experiments
// package is included — it renders the reported artifacts — with its
// intentional wall-clock timing sites carrying allow annotations.
var modelPackages = map[string]bool{
	"engine":      true,
	"core":        true,
	"server":      true,
	"network":     true,
	"sched":       true,
	"fault":       true,
	"topology":    true,
	"scenario":    true,
	"invariant":   true,
	"modelcov":    true,
	"experiments": true,
	"job":         true,
	"workload":    true,
	"power":       true,
	"simtime":     true,
	"stats":       true,
	"trace":       true,
	"dist":        true,
	"rng":         true,
	"runner":      true,
}

// isFirstParty reports whether the package is part of this module (the
// hotpath contract applies wherever a function opts in).
func isFirstParty(path string) bool {
	return path == strings.TrimSuffix(modulePrefix, "/") || strings.HasPrefix(path, modulePrefix)
}

// isModelPackage reports whether the determinism contract governs the
// package: holdcsim/internal/<name> for a name in modelPackages, plus
// every cmd/ binary (flagged sites there annotate their wall-clock use).
func isModelPackage(path string) bool {
	if rest, ok := strings.CutPrefix(path, modulePrefix+"internal/"); ok {
		base := rest
		if i := strings.Index(rest, "/"); i >= 0 {
			base = rest[:i]
		}
		return modelPackages[base]
	}
	if strings.HasPrefix(path, modulePrefix+"cmd/") {
		return true
	}
	return false
}
