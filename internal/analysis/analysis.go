// Package analysis is simlint: the determinism check, a static pass that
// enforces the one contract the test suite can only sample —
// byte-identical replay (DESIGN.md Sec. 3). A wall-clock read or an
// order-dependent map range is wrong on every input, but a test sees it
// only on an input that reaches the line; the check sees every line of
// the tree on every `go test ./...` (TestTreeHasNoFindings). Allocation
// discipline is the runtime zero-alloc gates' to measure, not this
// package's to guess (DESIGN.md Sec. 14).
//
// The loader (load.go) is self-contained on the standard library: it
// shells out to `go list -export` and typechecks with the gc export-data
// importer, so the check runs offline. There are no suppression
// comments: the check's one exemption is named in code (exemptFunc).
package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// A Diagnostic is one finding, positioned in the checked package.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string { return fmt.Sprintf("%s: %s", d.Pos, d.Message) }

// modulePrefix is the first-party import-path prefix the contract
// governs.
const modulePrefix = "holdcsim/"

// modelPackages are the deterministic-model packages: everything that
// executes between Build and Collect must replay byte-identically, so
// the check bans wall clocks, global randomness, environment reads, and
// order-sensitive map iteration there. The experiments package is
// included — it renders the reported artifacts — and so is runner, home
// of the one exempt clock read.
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

// isModelPackage reports whether the determinism contract governs the
// package: holdcsim/internal/<name> for a name in modelPackages, plus
// every cmd/ binary (their report timing goes through the exemption).
func isModelPackage(path string) bool {
	if rest, ok := strings.CutPrefix(path, modulePrefix+"internal/"); ok {
		base, _, _ := strings.Cut(rest, "/")
		return modelPackages[base]
	}
	return strings.HasPrefix(path, modulePrefix+"cmd/")
}
