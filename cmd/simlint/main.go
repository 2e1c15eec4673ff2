// Command simlint runs the internal/analysis static-contract suite: the
// determinism, hotpath and annotation passes that
// enforce at compile time what the test suite can only sample at run
// time (DESIGN.md Sec. 14).
//
//	simlint [-json] [-C dir] [packages]     default ./...
//
// It loads packages via `go list -export` and prints one finding per
// line (or a JSON array with -json). The whole tree takes seconds, so
// there is one driver; internal/analysis's own tests run the same suite
// over ./... as part of `go test ./...`.
//
// Exit status: 0 clean, 1 usage or load failure, 2 findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"holdcsim/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches one CLI invocation; factored from main so tests drive
// the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	dir := fs.String("C", ".", "change to `dir` before loading packages")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: simlint [-json] [-C dir] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return 1
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analysis.RunSuite(pkg)...)
	}
	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// jsonDiagnostic is the -json wire shape: stable field names decoupled
// from the internal Diagnostic struct.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(w io.Writer, diags []analysis.Diagnostic) error {
	out := make([]jsonDiagnostic, len(diags))
	for i, d := range diags {
		out[i] = jsonDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
