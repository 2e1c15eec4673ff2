// Package analysis is the determinism check: a static pass that
// enforces the one contract the test suite can only sample —
// byte-identical replay (DESIGN.md Sec. 3). A wall-clock read or an
// unsorted map range is wrong on every input, but a test sees it
// only on an input that reaches the line; the check sees every line of
// the tree on every `go test ./...` (TestTreeHasNoFindings). Allocation
// discipline is the runtime zero-alloc gates' to measure, not this
// package's to guess (DESIGN.md Sec. 14).
//
// The loader (load.go) is self-contained on the standard library: it
// shells out to `go list -export` and typechecks with the gc export-data
// importer, so the check runs offline. There are no suppression
// comments and no exemptions.
package analysis

import (
	"go/token"
	"strings"
)

// A Diagnostic is one finding, positioned in the checked package.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

// module is the first-party module path the contract governs.
const module = "holdcsim"

// isModelPackage reports whether the determinism contract governs the
// package: every first-party package — internal/, cmd/, examples/ and
// the root facade — but the check's own, which shells out to the go
// tool.
func isModelPackage(path string) bool {
	const self = module + "/internal/analysis"
	if path == self || strings.HasPrefix(path, self+"/") {
		return false
	}
	return path == module || strings.HasPrefix(path, module+"/")
}
