package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The simlint annotation vocabulary (DESIGN.md Sec. 14):
//
//	//simlint:allow <pass> <reason>
//	    Suppresses findings of pass <pass> on the annotated line. As a
//	    trailing comment it targets its own line; as a standalone
//	    comment it targets the line immediately below (stacked
//	    annotations above one line all target that line). The pass name
//	    must be one of the suite's analyzers and the reason is
//	    mandatory — both are hard errors, as is an allow that suppresses
//	    nothing (stale suppressions must not rot in the tree).
//
//	//simlint:hotpath
//	    Marks the function declaration it documents (or immediately
//	    precedes) as hot-path-constrained: the hotpath pass then bans
//	    closures capturing loop variables, fmt calls, interface-boxing
//	    conversions, and growable appends inside it. Attaching it to
//	    anything other than a function declaration is a hard error.
//
// Directives are comment-directives in the gofmt sense: no space after
// `//`, so gofmt leaves them alone.
const directivePrefix = "//simlint:"

// allowAnn is one parsed //simlint:allow annotation.
type allowAnn struct {
	pass string
	pos  token.Position // of the annotation comment itself
	used bool
}

// annotations is the per-package annotation table shared by every pass.
type annotations struct {
	// allows indexes parsed allow annotations by filename and target
	// line.
	allows map[string]map[int][]*allowAnn
	// hotpath is the set of function declarations carrying a
	// //simlint:hotpath annotation.
	hotpath map[*ast.FuncDecl]bool
	// malformed collects vocabulary violations: unknown directive or
	// pass name, missing reason, annotation on a line it cannot govern.
	// These are hard errors — reported unsuppressably by the annotation
	// analyzer.
	malformed []Diagnostic
}

// AnnotationAnalyzer validates the annotation vocabulary itself. It has
// no Run logic of its own beyond surfacing the parse-time hard errors:
// a malformed annotation must fail the build even when no pass would
// have reported anything near it.
var AnnotationAnalyzer = &Analyzer{
	Name: "annotation",
	Doc: "validates the //simlint: annotation vocabulary: known directive, " +
		"known pass name, mandatory reason, hotpath attached to a function",
	Run: func(p *Pass) {
		for _, d := range p.ann.malformed {
			*p.sink = append(*p.sink, Diagnostic{Pos: d.Pos, Analyzer: "annotation", Message: d.Message})
		}
	},
}

// allowed reports whether a finding of pass at position is suppressed by
// an allow annotation, marking the annotation used.
func (a *annotations) allowed(pass string, pos token.Position) bool {
	for _, ann := range a.allows[pos.Filename][pos.Line] {
		if ann.pass == pass {
			ann.used = true
			return true
		}
	}
	return false
}

// unused reports every allow annotation that suppressed nothing — an
// annotation on the wrong line, or one outliving the finding it excused.
func (a *annotations) unused() []Diagnostic {
	var diags []Diagnostic
	for _, byLine := range a.allows {
		for _, anns := range byLine {
			for _, ann := range anns {
				if !ann.used {
					diags = append(diags, Diagnostic{
						Pos:      ann.pos,
						Analyzer: "annotation",
						Message: "//simlint:allow " + ann.pass +
							" suppresses no finding (wrong line, or the finding is gone — delete it)",
					})
				}
			}
		}
	}
	return diags
}

// parseAnnotations scans every comment in files for simlint directives.
func parseAnnotations(fset *token.FileSet, files []*ast.File) *annotations {
	a := &annotations{
		allows:  map[string]map[int][]*allowAnn{},
		hotpath: map[*ast.FuncDecl]bool{},
	}
	names := passNames()
	for _, f := range files {
		codeLines := codeLineSet(fset, f)
		// funcStart maps a starting line to its declaration, to resolve
		// hotpath annotations.
		funcStart := map[int]*ast.FuncDecl{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				funcStart[fset.Position(fd.Pos()).Line] = fd
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				target := pos.Line // trailing comment: governs its own line
				if !codeLines[pos.Line] {
					// Standalone comment (possibly mid-stack): governs
					// the first line after its comment group.
					target = fset.Position(cg.End()).Line + 1
				}
				body := strings.TrimPrefix(c.Text, directivePrefix)
				verb, rest, _ := strings.Cut(body, " ")
				switch verb {
				case "allow":
					pass, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
					reason = strings.TrimSpace(reason)
					if pass == "" || !names[pass] {
						a.malformed = append(a.malformed, Diagnostic{Pos: pos,
							Message: "//simlint:allow needs a known pass name (have " + quoted(pass) + ", want one of " + nameList() + ")"})
						continue
					}
					if reason == "" {
						a.malformed = append(a.malformed, Diagnostic{Pos: pos,
							Message: "//simlint:allow " + pass + " needs a reason"})
						continue
					}
					byLine := a.allows[pos.Filename]
					if byLine == nil {
						byLine = map[int][]*allowAnn{}
						a.allows[pos.Filename] = byLine
					}
					byLine[target] = append(byLine[target], &allowAnn{pass: pass, pos: pos})
				case "hotpath":
					if strings.TrimSpace(rest) != "" {
						a.malformed = append(a.malformed, Diagnostic{Pos: pos,
							Message: "//simlint:hotpath takes no arguments"})
						continue
					}
					fd := funcStart[target]
					if fd == nil && codeLines[pos.Line] {
						fd = funcStart[pos.Line]
					}
					if fd == nil {
						a.malformed = append(a.malformed, Diagnostic{Pos: pos,
							Message: "//simlint:hotpath must be attached to a function declaration"})
						continue
					}
					a.hotpath[fd] = true
				default:
					a.malformed = append(a.malformed, Diagnostic{Pos: pos,
						Message: "unknown simlint directive " + quoted(verb) + " (want allow or hotpath)"})
				}
			}
		}
	}
	return a
}

// codeLineSet records which lines hold non-comment code, by walking the
// AST and marking every node's starting line. A line holding only a
// closing brace is not a node start, which is fine: no finding anchors
// there either.
func codeLineSet(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup, *ast.File:
			return true
		}
		lines[fset.Position(n.Pos()).Line] = true
		return true
	})
	return lines
}

func quoted(s string) string { return "\"" + s + "\"" }

func nameList() string {
	var out []string
	for _, a := range Suite() {
		if a.Name != "annotation" {
			out = append(out, a.Name)
		}
	}
	return strings.Join(out, ", ")
}
