// Package ctxflow enforces context plumbing on the request paths:
// a function that already has a context — a context.Context
// parameter, or an *http.Request whose Context() carries the
// caller's deadline — must thread it onward instead of minting a
// fresh root with context.Background() or context.TODO(). Dropping
// the inbound context detaches the decide path from the caller's
// deadline and cancellation, which is exactly what the fleet
// client's per-attempt deadlines and the server's decide timeout
// exist to prevent. Passing a nil context is flagged everywhere.
//
// Legitimate root contexts — main(), detached shutdown drains,
// background loops without an inbound context — are not flagged,
// because those functions have no context parameter to thread.
package ctxflow

import (
	"go/ast"
	"go/types"

	"clrdse/internal/analysis"
)

// Analyzer is the ctxflow check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "HTTP handlers and fleet client calls must thread the inbound context.Context " +
		"(or r.Context()) into decide/request paths instead of calling context.Background()/TODO(), " +
		"and must never pass a nil Context",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkFunc(pass, fd.Type, fd.Body, false)
		}
	}
	return nil
}

// walkFunc scans one function body; ctxAvail reports whether any
// enclosing function already provides a context.
func walkFunc(pass *analysis.Pass, ft *ast.FuncType, body *ast.BlockStmt, ctxAvail bool) {
	avail := ctxAvail || analysis.HasCtxSource(pass.TypesInfo, ft)
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			// A closure inherits its enclosing function's context
			// availability (it can capture the variable).
			walkFunc(pass, v.Type, v.Body, avail)
			return false
		case *ast.CallExpr:
			checkCall(pass, v, avail)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, ctxAvail bool) {
	f := analysis.FuncOf(pass.TypesInfo, call)
	if f == nil {
		return
	}
	if ctxAvail && f.Pkg() != nil && f.Pkg().Path() == "context" && (f.Name() == "Background" || f.Name() == "TODO") {
		pass.Reportf(call.Pos(), "context.%s() inside a function that already has a context; thread the inbound context (or r.Context()) instead", f.Name())
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok || id.Name != "nil" {
			continue
		}
		if tv, ok := pass.TypesInfo.Types[arg]; !ok || !tv.IsNil() {
			continue
		}
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok && i >= params.Len()-1 {
				pt = s.Elem()
			}
		}
		if pt != nil && analysis.IsNamed(pt, "context", "Context") {
			pass.Reportf(arg.Pos(), "nil passed as context.Context to %s; use the inbound context (or context.Background() at a true root)", f.Name())
		}
	}
}
