package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BreakerState enforces the data service's circuit-breaker transition
// discipline: every assignment to the breaker's state field in
// scipp/internal/dataserve must happen inside a *Locked function — the
// package convention for code holding the service mutex, which is what
// serializes admission decisions against outcome recording — and that
// function must also record an obs instrument (Inc/Add/Set/Observe), so a
// breaker can never change position invisibly. A transition outside the
// mutex races the admission check a consumer's Next makes as it queues a
// request; a transition without an
// instrument is invisible to Stats, which is a typed view over those
// instruments, and so to the exact reconciliation the overload tooling
// asserts.
var BreakerState = &Analyzer{
	Name: "breakerstate",
	Doc:  "flag breaker state transitions in internal/dataserve outside *Locked methods or without an obs record",
	Run:  runBreakerState,
}

// obsRecordMethods are the instrument mutators that count as "recorded".
var obsRecordMethods = map[string]bool{
	"Inc": true, "Add": true, "Set": true, "Observe": true,
}

func runBreakerState(pass *Pass) {
	if pass.Path != "scipp/internal/dataserve" {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			assigns := breakerStateAssigns(pass, fn.Body)
			if len(assigns) == 0 {
				continue
			}
			locked := strings.HasSuffix(fn.Name.Name, "Locked")
			recorded := recordsInstrument(fn.Body)
			for _, pos := range assigns {
				if !locked {
					pass.Reportf(Error, pos,
						"breaker state transition outside the service mutex: assign breaker.state only in a *Locked method")
				} else if !recorded {
					pass.Reportf(Error, pos,
						"breaker state transition without an obs record: a *Locked transition must also call an instrument's Inc/Add/Set/Observe")
				}
			}
		}
	}
}

// breakerStateAssigns collects the positions of assignments to the state
// field of the package's breaker struct within body. With type information
// the receiver is checked to really be the breaker type; without it, any
// selector spelled `.state` counts.
func breakerStateAssigns(pass *Pass, body *ast.BlockStmt) []token.Pos {
	var out []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "state" {
				continue
			}
			if !isBreakerRecv(pass, sel.X) {
				continue
			}
			out = append(out, sel.Pos())
		}
		return true
	})
	return out
}

// isBreakerRecv reports whether expr's type resolves to the dataserve
// breaker struct (through pointers), or true when type info is unavailable
// so the rule degrades to name matching rather than silence.
func isBreakerRecv(pass *Pass, expr ast.Expr) bool {
	if pass.Info == nil {
		return true
	}
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.Type == nil {
		return true
	}
	typ := tv.Type
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, ok := typ.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "breaker"
}

// recordsInstrument reports whether body contains a call to one of the obs
// instrument mutators.
func recordsInstrument(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && obsRecordMethods[sel.Sel.Name] {
			found = true
		}
		return !found
	})
	return found
}
