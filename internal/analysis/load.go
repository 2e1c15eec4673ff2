package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one typechecked package ready for Check.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
}

// Load resolves patterns (e.g. "./...") in dir into typechecked
// packages. It shells out to `go list -export -deps -json`, which both
// names the target packages and — via the build cache — supplies gc
// export data for every dependency, so typechecking needs only the
// targets' own sources — their non-test files only: the contracts govern
// model code, and tests are free to use wall clocks and global
// randomness. This works fully offline: no module downloads, no
// golang.org/x/tools dependency.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	exports := map[string]string{}
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			q := p
			targets = append(targets, &q)
		}
	}
	fset := token.NewFileSet()
	lookup := exportLookup(exports)
	var pkgs []*Package
	for _, t := range targets {
		pkg, err := typecheck(fset, t.ImportPath, t.Dir, t.GoFiles, lookup)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// exportLookup adapts an import-path→export-file table into a gc
// importer lookup.
func exportLookup(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("determinism check: no export data for %q", path)
		}
		return os.Open(f)
	}
}

// typecheck parses dir's files and typechecks them as package path.
func typecheck(fset *token.FileSet, path, dir string, fileNames []string,
	lookup func(string) (io.ReadCloser, error)) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		af, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		// Keep going on minor errors so one bad file does not hide every
		// other finding; the first error still fails the load below.
		Error: func(error) {},
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("determinism check: typecheck %s: %v", path, err)
	}
	return &Package{
		Fset:      fset,
		Files:     files,
		Types:     pkg,
		TypesInfo: info,
	}, nil
}
