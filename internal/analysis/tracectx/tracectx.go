// Package tracectx enforces the observability contract of the decide
// path (DESIGN.md §8): trace IDs ride the request context from the
// edge, and every started span ends.
//
// Rule 1 — no mid-stack minting. A function that already has a
// context source (a context.Context parameter or an *http.Request)
// received its caller's trace; minting a fresh ID there (obs's
// Minter.Mint) forks the correlation chain, and the decision journal
// ends up with entries no request log line matches. Minting is legal
// only at a trace edge — a function that first tries to adopt the
// inbound ID (obs.ParseTraceID on the wire header, or obs.TraceIDFrom
// on the context) and mints strictly as the fallback — or at a true
// root with no inbound context at all.
//
// Rule 2 — spans pair. The Stage/startSpan idiom returns the closure
// that ends the span; discarding it (expression statement, blank
// assignment, or `defer tr.Stage("x")` without the trailing call
// parentheses) leaves a span open forever, silently losing the stage
// from the journal and the latency histograms. The end closure must
// be called, deferred, or handed onward (argument/return).
package tracectx

import (
	"go/ast"
	"go/types"

	"clrdse/internal/analysis"
)

// Analyzer is the tracectx check.
var Analyzer = &analysis.Analyzer{
	Name: "tracectx",
	Doc: "trace IDs must be adopted from the inbound context/header, never minted mid-stack, " +
		"and every span-start (Stage) must have its end closure called or deferred",
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

// walkFunc checks one function, then recurses into its closures.
// ctxAvail reports whether an enclosing function already provides a
// context source (a closure can capture it).
func walkFunc(pass *analysis.Pass, ft *ast.FuncType, body *ast.BlockStmt, ctxAvail bool) {
	avail := ctxAvail || analysis.HasCtxSource(pass.TypesInfo, ft)
	// Adoption anywhere in the function (including its closures, which
	// share the edge's locals) licenses its fallback minting.
	adopts := adoptsInbound(pass, body)
	checkBody(pass, body, avail, adopts)
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			walkFunc(pass, fl.Type, fl.Body, avail)
			return false
		}
		return true
	})
}

// checkBody scans one function's own statements (not its closures',
// which walkFunc visits with their own context availability).
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, ctxAvail, adopts bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			if call, ok := v.X.(*ast.CallExpr); ok {
				if inner, ok := ast.Unparen(call.Fun).(*ast.CallExpr); ok && isSpanStart(pass, inner) {
					// tr.Stage("x")(): started and immediately ended.
					checkMint(pass, inner, ctxAvail, adopts)
					return false
				}
				if isSpanStart(pass, call) {
					pass.Reportf(call.Pos(), "result of %s discarded; the span never ends — use defer %s(...)() or call the end closure", callName(pass, call), callName(pass, call))
					checkMint(pass, call, ctxAvail, adopts)
					return false
				}
			}
		case *ast.DeferStmt:
			if isSpanStart(pass, v.Call) {
				pass.Reportf(v.Call.Pos(), "defer %s(...) starts the span at function exit and discards its end closure; you want defer %s(...)()", callName(pass, v.Call), callName(pass, v.Call))
				checkMint(pass, v.Call, ctxAvail, adopts)
				return false
			}
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isSpanStart(pass, call) {
					continue
				}
				checkMint(pass, call, ctxAvail, adopts)
				if len(v.Lhs) != len(v.Rhs) {
					continue
				}
				id, ok := v.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(), "end closure of %s assigned to _; the span never ends", callName(pass, call))
					continue
				}
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil && !endClosureResolved(pass, body, obj, id) {
					pass.Reportf(call.Pos(), "end closure %s of %s is never called or deferred; the span never ends", id.Name, callName(pass, call))
				}
			}
		case *ast.CallExpr:
			checkMint(pass, v, ctxAvail, adopts)
		}
		return true
	})
}

// checkMint flags an obs mint call when a context is in scope and the
// function never tries to adopt the inbound trace first.
func checkMint(pass *analysis.Pass, call *ast.CallExpr, ctxAvail, adopts bool) {
	if !ctxAvail || adopts || !isMint(pass, call) {
		return
	}
	pass.Reportf(call.Pos(), "trace ID minted mid-stack: this function already has a context; adopt the inbound trace (obs.TraceIDFrom or obs.ParseTraceID) and mint only as the edge fallback")
}

// adoptsInbound reports whether the body consults the inbound trace
// carrier: obs.TraceIDFrom (context) or obs.ParseTraceID (header).
func adoptsInbound(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		f := analysis.FuncOf(pass.TypesInfo, call)
		if f == nil || f.Pkg() == nil || analysis.PkgBase(f.Pkg().Path()) != "obs" {
			return true
		}
		if f.Name() == "TraceIDFrom" || f.Name() == "ParseTraceID" {
			found = true
			return false
		}
		return true
	})
	return found
}

// isMint reports a call of obs's Minter.Mint (matched by package base
// so the checktest stub package matches too).
func isMint(pass *analysis.Pass, call *ast.CallExpr) bool {
	f := analysis.FuncOf(pass.TypesInfo, call)
	return f != nil && f.Pkg() != nil &&
		analysis.PkgBase(f.Pkg().Path()) == "obs" && f.Name() == "Mint"
}

// isSpanStart reports a span-opening call: a callee named Stage,
// StartSpan or startStage whose single result is the end closure
// (func() with no parameters or results).
func isSpanStart(pass *analysis.Pass, call *ast.CallExpr) bool {
	f := analysis.FuncOf(pass.TypesInfo, call)
	if f == nil {
		return false
	}
	switch f.Name() {
	case "Stage", "StartSpan", "startStage":
	default:
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	res, ok := sig.Results().At(0).Type().Underlying().(*types.Signature)
	return ok && res.Params().Len() == 0 && res.Results().Len() == 0
}

// endClosureResolved reports whether the end closure bound to obj is
// ever called, deferred, or handed onward (argument, return value,
// composite literal) after its defining use def.
func endClosureResolved(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object, def *ast.Ident) bool {
	resolved := false
	ast.Inspect(body, func(n ast.Node) bool {
		if resolved {
			return false
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			if fun, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && fun != def && pass.TypesInfo.ObjectOf(fun) == obj {
				resolved = true // end() or defer end()
				return false
			}
			for _, arg := range v.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && id != def && pass.TypesInfo.ObjectOf(id) == obj {
					resolved = true // handed onward
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range v.Results {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok && id != def && pass.TypesInfo.ObjectOf(id) == obj {
					resolved = true
					return false
				}
			}
		case *ast.CompositeLit:
			for _, elt := range v.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if id, ok := ast.Unparen(elt).(*ast.Ident); ok && id != def && pass.TypesInfo.ObjectOf(id) == obj {
					resolved = true
					return false
				}
			}
		}
		return true
	})
	return resolved
}

// callName renders the callee for diagnostics (method or function
// name; good enough to locate the call).
func callName(pass *analysis.Pass, call *ast.CallExpr) string {
	if f := analysis.FuncOf(pass.TypesInfo, call); f != nil {
		return f.Name()
	}
	return "span start"
}
