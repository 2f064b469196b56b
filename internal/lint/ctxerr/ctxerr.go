// Package ctxerr applies two service-tier hygiene checks to the HTTP
// daemon and the batch runner (internal/server, internal/batch) — the
// packages that face real concurrent traffic rather than the
// single-threaded simulation loop:
//
//  1. Dropped errors: a statement that calls a function whose final
//     result is an error and discards every result. In a request
//     handler a swallowed write error means a client sees a truncated
//     body with a 200 status; in the batch runner it means a lost
//     store write. Handle the error or annotate the line:
//
//     w.Write(b) //simlint:err response write; client gone, nothing to do
//
//  2. Context-free goroutines: a `go` statement inside a function that
//     receives a context.Context but does not thread any context into
//     the goroutine. Such a goroutine outlives request cancellation and
//     server drain. Pass the context (or a derived one) in, or
//     annotate with //simlint:ctx and a reason the goroutine's
//     lifetime is bounded some other way.
//
// Writes into in-memory buffers (*strings.Builder, *bytes.Buffer) never
// fail and are exempt from the dropped-error check, both as methods on
// the buffer and as the writer argument of fmt.Fprint*.
package ctxerr

import (
	"go/ast"
	"go/types"

	"ecgrid/internal/lint"
)

// Analyzer is the ctxerr check.
var Analyzer = &lint.Analyzer{
	Name: "ctxerr",
	Doc:  "flags dropped error returns and context-free goroutines in the service packages",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if !lint.InScope(pass.Pkg.Path, lint.ServicePackages) {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		checkDroppedErrors(pass, f)
		checkGoroutineContext(pass, f)
	}
	return nil
}

// checkDroppedErrors flags expression statements (and defers/go
// statements) whose call returns an error as its last result.
func checkDroppedErrors(pass *lint.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		var call *ast.CallExpr
		var at ast.Node
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, _ = n.X.(*ast.CallExpr)
			at = n
		case *ast.DeferStmt:
			call, at = n.Call, n
		case *ast.GoStmt:
			call, at = n.Call, n
		default:
			return true
		}
		if call == nil || !returnsError(pass.Pkg.Info, call) || infallibleWriter(pass.Pkg.Info, call) {
			return true
		}
		if pass.Suppressed(at, "err") {
			return true
		}
		pass.Reportf(call.Pos(),
			"error result of %s dropped: handle it or annotate //simlint:err with a justification",
			types.ExprString(call.Fun))
		return true
	})
}

// returnsError reports whether the call's final result type is error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	var last types.Type
	switch t := tv.Type.(type) {
	case *types.Tuple:
		if t.Len() == 0 {
			return false
		}
		last = t.At(t.Len() - 1).Type()
	default:
		last = t
	}
	named, ok := last.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil // the universe error type
}

// infallibleWriter exempts writes that cannot fail: methods on
// *strings.Builder / *bytes.Buffer, and fmt.Fprint* with such a buffer
// as the writer.
func infallibleWriter(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if isBuffer(info, sel.X) {
		return true
	}
	if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fmt" && len(call.Args) > 0 {
		switch sel.Sel.Name {
		case "Fprint", "Fprintf", "Fprintln":
			return isBuffer(info, call.Args[0])
		}
	}
	return false
}

func isBuffer(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	full := obj.Pkg().Path() + "." + obj.Name()
	return full == "strings.Builder" || full == "bytes.Buffer"
}

// checkGoroutineContext flags `go` statements in context-carrying
// functions that do not thread a context through.
func checkGoroutineContext(pass *lint.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !hasContextParam(pass.Pkg.Info, fd.Type) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if usesContext(pass.Pkg.Info, gs.Call) {
				return true
			}
			if pass.Suppressed(gs, "ctx") {
				return true
			}
			pass.Reportf(gs.Pos(),
				"goroutine launched without the request context: thread ctx through or annotate //simlint:ctx with a justification")
			return true
		})
	}
}

func hasContextParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if isContextType(info.Types[field.Type].Type) {
			return true
		}
	}
	return false
}

// usesContext reports whether any expression in the go statement's call
// (including a function-literal body) has type context.Context.
func usesContext(info *types.Info, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[e]; ok && isContextType(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
