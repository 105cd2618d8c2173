// Package analysis is a self-contained, standard-library-only subset
// of the golang.org/x/tools/go/analysis framework: an Analyzer is a
// named check over one type-checked package, a Pass hands it the
// syntax trees and type information, and diagnostics are positioned
// findings. The repository's custom determinism and concurrency
// checks (detrand, maporder, lockheld, ctxflow, metricname) are
// written against this API so they can migrate to the real x/tools
// framework unchanged if the dependency ever becomes available; the
// container this repo builds in has no module proxy access, so the
// framework itself ships here.
//
// Suppression: a diagnostic is suppressed by a comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// on the same line as the finding or on the line directly above it.
// The reason is mandatory: an allow comment without one does not
// suppress anything and is itself reported (pseudo-analyzer
// "lintallow"), so every waiver in the tree carries its
// justification.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects a single package via the
// Pass and reports findings through pass.Reportf; returning an error
// aborts the whole lint run (reserved for internal failures, not
// findings).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow comments. It must be a lowercase identifier.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run performs the check.
	Run func(*Pass) error
}

// Pass is the input to one analyzer on one package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees (with comments).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression and identifier
	// facts for Files.
	TypesInfo *types.Info
	// Session is the cross-package state of the run: exported facts
	// and the module call graph. Always non-nil (Run creates one per
	// call for legacy single-package use).
	Session *Session

	diags *[]Diagnostic
}

// ExportObjectFact attaches a fact to obj, which must be a
// package-level object of the package under analysis (or a method of
// one of its named types) — the objects a dependent package can name.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	p.Session.exportObjectFact(obj, f)
}

// ImportObjectFact copies the fact of f's type previously exported
// for obj into f, reporting whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	return p.Session.importObjectFact(obj, f)
}

// ExportPackageFact attaches a fact to the package under analysis.
func (p *Pass) ExportPackageFact(f Fact) {
	p.Session.exportPackageFact(p.Pkg, f)
}

// ImportPackageFact copies the fact of f's type previously exported
// for the package at path into f, reporting whether one existed.
func (p *Pass) ImportPackageFact(path string, f Fact) bool {
	return p.Session.importPackageFact(path, f)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Analyzer names the check that produced it.
	Analyzer string
	// Message states the violation.
	Message string
}

// Target bundles the loaded, type-checked package an analyzer suite
// runs over. It is the adapter between this package and whichever
// loader produced the syntax and types (cmd/clrlint's go-list loader,
// or the checktest harness's source loader).
type Target struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Run executes every analyzer over the target in a fresh
// single-package session, applies //lint:allow suppression, flags
// malformed allow comments, and returns the surviving diagnostics
// sorted by position. For multi-package runs where analyzers should
// see cross-package facts and the module call graph, create one
// Session, AddTarget each package in dependency order, and call
// RunSession instead.
func Run(analyzers []*Analyzer, t Target) ([]Diagnostic, error) {
	s := NewSession()
	s.AddTarget(t)
	return RunSession(s, analyzers, t)
}

// AddTarget registers a type-checked package with the session,
// growing the call graph. Call it for each package — in dependency
// order, before that package's RunSession — so analyzers on later
// packages can traverse into earlier ones.
func (s *Session) AddTarget(t Target) {
	s.Graph.AddPackage(t)
}

// RunSession executes every analyzer over the target within an
// ongoing session. The target must have been registered with
// AddTarget first.
func RunSession(s *Session, analyzers []*Analyzer, t Target) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      t.Fset,
			Files:     t.Files,
			Pkg:       t.Pkg,
			TypesInfo: t.Info,
			Session:   s,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, t.Pkg.Path(), err)
		}
	}
	allowed, malformed := collectAllows(t.Fset, t.Files)
	kept := diags[:0]
	for _, d := range diags {
		pos := t.Fset.Position(d.Pos)
		if allowed[allowKey{pos.Filename, pos.Line, d.Analyzer}] {
			continue
		}
		kept = append(kept, d)
	}
	kept = append(kept, malformed...)
	sort.Slice(kept, func(i, j int) bool {
		pi, pj := t.Fset.Position(kept[i].Pos), t.Fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}

type allowKey struct {
	file     string
	line     int
	analyzer string
}

const allowPrefix = "//lint:allow"

// collectAllows scans every comment for //lint:allow directives. A
// well-formed directive ("//lint:allow <analyzer> <reason>")
// suppresses the named analyzer on its own line and the next line; a
// directive missing the analyzer name or the reason is returned as a
// diagnostic instead, so it fails the run rather than silently
// suppressing nothing.
func collectAllows(fset *token.FileSet, files []*ast.File) (map[allowKey]bool, []Diagnostic) {
	allowed := make(map[allowKey]bool)
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "lintallow",
						Message:  "malformed //lint:allow: need \"//lint:allow <analyzer> <reason>\" (the reason is mandatory)",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				name := fields[0]
				allowed[allowKey{pos.Filename, pos.Line, name}] = true
				allowed[allowKey{pos.Filename, pos.Line + 1, name}] = true
			}
		}
	}
	return allowed, malformed
}

// PkgBase returns the last element of a package import path: the
// analyzers scope themselves by it so that both the real module paths
// ("clrdse/internal/dse") and the short paths the checktest harness
// assigns to testdata packages ("dse") match the same contract.
func PkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// FuncOf resolves a call's callee to the *types.Func it invokes
// (static function, method, or interface method), or nil for dynamic
// calls through function-typed values, conversions and builtins.
func FuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// IsPkgFunc reports whether the call statically invokes pkgPath.name
// (package-level function, not a method).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := FuncOf(info, call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == pkgPath && f.Name() == name && f.Type().(*types.Signature).Recv() == nil
}

// IsNamed reports whether t is the named type pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// HasCtxSource reports whether a function signature provides a
// context source: a context.Context parameter or an *http.Request.
func HasCtxSource(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := info.TypeOf(field.Type)
		if p, ok := t.(*types.Pointer); ok && IsNamed(p.Elem(), "net/http", "Request") || IsNamed(t, "context", "Context") {
			return true
		}
	}
	return false
}
