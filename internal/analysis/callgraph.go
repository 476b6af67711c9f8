package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file builds the module-local call graph behind the hot-path rules.
// Roots are functions annotated with a
//
//	//scipp:hotpath
//
// doc directive — the per-sample loops of the pipeline (stage Process
// bodies, Iterator.Next, the pool runner), the codec decode entry points,
// and the simulated device's execute path. Hotness propagates through
// static, module-internal call edges, with three deliberate stops:
//
//   - dynamic dispatch: a call through an interface (or a function value)
//     has no static callee; hot implementations carry their own annotation
//     instead (each stage's Process is annotated, not the Stage interface);
//   - pool methods: calls whose receiver is a pool type (a named type whose
//     name contains "Pool", including sync.Pool) are the sanctioned
//     allocator — the freelist hit IS the discipline, so what a pool does
//     internally is not hot;
//   - error-dominated sites: calls only reachable under a condition that
//     mentions an error value are the cold failure path (error rendering,
//     accounting, teardown), not the per-sample loop.
//
// The loader type-checks the whole module through one shared importer
// cache, so a *types.Func seen from an importing package is the same object
// as its definition — function identity holds module-wide and the graph
// crosses package boundaries for free.

// Module is the module-wide view handed to every analysis pass: the loaded
// packages plus the hot-path call graph over them.
type Module struct {
	funcs map[*types.Func]*funcNode
	// hotVia maps each hot-reachable function to the annotated root it was
	// reached from (itself, for roots) — context for diagnostics.
	hotVia map[*types.Func]*types.Func
	// dead is the set of functions deadcode reports, nil when the run does
	// not cover the whole module (see deadcode.go).
	dead map[*types.Func]bool
}

// funcNode is one module function in the call graph.
type funcNode struct {
	fn    *types.Func
	decl  *ast.FuncDecl
	root  bool
	calls []callEdge
	// refs are the functions the body mentions at all — called, taken as
	// a value or as a method value — each as its generic origin.
	refs []*types.Func
}

// callEdge is one static call site.
type callEdge struct {
	callee       *types.Func
	errDominated bool
}

// hotPathDirective is the doc-comment directive marking call-graph roots.
const hotPathDirective = "//scipp:hotpath"

// BuildModule constructs the call graph over pkgs and propagates hot-path
// reachability from the //scipp:hotpath roots.
func BuildModule(pkgs []*Package) *Module {
	m := &Module{
		funcs:  make(map[*types.Func]*funcNode),
		hotVia: make(map[*types.Func]*types.Func),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{fn: fn, decl: fd, root: hasDirective(fd.Doc, hotPathDirective)}
				collectCalls(pkg.Info, fd.Body, false, node)
				m.funcs[fn] = node
			}
		}
	}
	// BFS from the roots through non-error-dominated static edges.
	var queue []*types.Func
	for fn, node := range m.funcs {
		if node.root {
			m.hotVia[fn] = fn
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		root := m.hotVia[fn]
		for _, e := range m.funcs[fn].calls {
			if e.errDominated {
				continue
			}
			callee := m.funcs[e.callee]
			if callee == nil { // outside the module
				continue
			}
			if _, seen := m.hotVia[e.callee]; seen {
				continue
			}
			m.hotVia[e.callee] = root
			queue = append(queue, e.callee)
		}
	}
	return m
}

// Hot reports whether fn is hot-path reachable, and if so, from which
// annotated root.
func (m *Module) Hot(fn *types.Func) (*types.Func, bool) {
	if m == nil || fn == nil {
		return nil, false
	}
	root, ok := m.hotVia[fn]
	return root, ok
}

// HotDecl is Hot keyed by a declaration's name ident, the form analyzers
// have in hand while walking files.
func (m *Module) HotDecl(info *types.Info, fd *ast.FuncDecl) (*types.Func, bool) {
	if m == nil || fd == nil {
		return nil, false
	}
	fn, _ := info.Defs[fd.Name].(*types.Func)
	return m.Hot(fn)
}

// hasDirective reports whether the comment group contains the directive as
// a standalone comment line. Directives are not part of CommentGroup.Text,
// so the raw list is scanned.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// collectCalls gathers the static call edges and function references under
// n into node. errDom tracks whether the walk is inside a branch whose
// condition mentions an error value.
func collectCalls(info *types.Info, n ast.Node, errDom bool, node *funcNode) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.IfStmt:
		if n.Init != nil {
			collectCalls(info, n.Init, errDom, node)
		}
		collectCalls(info, n.Cond, errDom, node)
		branchDom := errDom || mentionsError(info, n.Cond)
		collectCalls(info, n.Body, branchDom, node)
		if n.Else != nil {
			collectCalls(info, n.Else, branchDom, node)
		}
		return
	case *ast.CallExpr:
		if callee := staticCallee(info, n); callee != nil && !isPoolMethod(callee) {
			node.calls = append(node.calls, callEdge{callee: callee, errDominated: errDom})
		}
	case *ast.Ident:
		if fn, ok := info.Uses[n].(*types.Func); ok {
			node.refs = append(node.refs, fn.Origin())
		}
	}
	for _, child := range childNodes(n) {
		collectCalls(info, child, errDom, node)
	}
}

// childNodes returns n's direct children (one-level ast.Inspect).
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	root := true
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if root {
			root = false
			return true // descend one level from n itself
		}
		out = append(out, c)
		return false // do not descend further; caller recurses
	})
	return out
}

// staticCallee resolves a call to its compile-time *types.Func target, or
// nil for dynamic calls: interface-method dispatch, calls through function
// values, builtins, and conversions.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return nil
		}
		if sel, ok := info.Selections[fun]; ok {
			// A method call: dispatch is static only on concrete receivers.
			if types.IsInterface(sel.Recv()) {
				return nil
			}
		}
		return fn
	}
	return nil
}

// isPoolMethod reports whether fn is a method on a pool type — a named
// receiver type whose name contains "Pool" (SlabPool, sync.Pool, ...). Pool
// methods are the recognized allocator: hotness does not propagate into
// them, and hotalloc treats their results as pooled memory.
func isPoolMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isPoolType(sig.Recv().Type())
}

// isPoolType reports whether t (possibly behind pointers) is a named type
// whose name contains "Pool".
func isPoolType(t types.Type) bool {
	for {
		ptr, ok := t.Underlying().(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return strings.Contains(named.Obj().Name(), "Pool")
}
