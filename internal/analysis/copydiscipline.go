package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CopyDiscipline keeps whole-sample clones off the cache-hit path. The
// storage-hierarchy cache exists so that a warm epoch re-serves resident
// bytes; cloning the blob on every hit (append onto a nil/empty slice,
// bytes.Clone / slices.Clone, or a copy into fresh scratch) silently turns
// the zero-copy hit into a per-sample allocation plus a memcpy of the whole
// sample — the cache then saves the storage read but none of the memory
// traffic. The rule tracks values returned by Get-style calls on cache
// types (a named type whose name contains "Cache") inside hot-path
// functions and flags clone idioms applied to them. Copies into recycled
// buffers are not clones of fresh memory and pass: append(buf[:0], v...),
// and a copy into the byte view of a tensor just drawn from a pool,
// copy(tensor.RawBytes(dst), v) — the one memmove a data-service hit owes
// its tenant, since tenants never alias cache memory.
var CopyDiscipline = &Analyzer{
	Name: "copydiscipline",
	Doc:  "flag whole-sample clones of cache-resident blobs on hot paths",
	Run:  runCopyDiscipline,
}

func runCopyDiscipline(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, hot := pass.Module.HotDecl(pass.Info, fd); !hot {
				continue
			}
			tracked := cacheGotVars(pass.Info, fd.Body)
			if len(tracked) == 0 {
				continue
			}
			flagClones(pass, fd.Body, tracked, pooledVars(pass.Info, fd.Body))
		}
	}
}

// cacheGotVars collects the variables bound from Get-style calls on
// cache-typed receivers: blob, label, ok := c.Get(i).
func cacheGotVars(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isCacheGet(info, call) {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
				if v, ok := objOf(info, id).(*types.Var); ok {
					out[v] = true
				}
			}
		}
		return true
	})
	return out
}

// isCacheGet matches a Get/Lookup-prefixed method call on a cache type.
func isCacheGet(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !hasFoldedPrefix(sel.Sel.Name, "get", "lookup") {
		return false
	}
	recv, ok := info.Types[sel.X]
	return ok && isCacheType(recv.Type)
}

// isCacheType reports whether t (behind pointers) is a named type whose
// name contains "Cache".
func isCacheType(t types.Type) bool {
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
	return strings.Contains(named.Obj().Name(), "Cache")
}

// pooledVars collects the variables bound from pool acquisitions, the
// same Get/Acquire-on-a-Pool calls poolleak tracks.
func pooledVars(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for _, def := range findPoolGets(info, body) {
		out[def.v] = true
	}
	return out
}

// isPooledRawView matches RawBytes(v), or pkg.RawBytes(v), with v a
// pool-drawn variable: recycled memory, not a fresh clone.
func isPooledRawView(info *types.Info, e ast.Expr, pooled map[*types.Var]bool) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if name != "RawBytes" || !ok {
		return false
	}
	v, ok := objOf(info, id).(*types.Var)
	return ok && pooled[v]
}

// flagClones reports clone idioms applied to tracked cache-resident values.
func flagClones(pass *Pass, body *ast.BlockStmt, tracked, pooled map[*types.Var]bool) {
	info := pass.Info
	isTracked := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		v, ok := objOf(info, id).(*types.Var)
		return ok && tracked[v]
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			switch fun.Name {
			case "append":
				// append(<fresh>, v...): a full clone into new memory.
				// Appending into a reused buffer (buf[:0]) is fine.
				if call.Ellipsis.IsValid() && len(call.Args) == 2 &&
					isTracked(call.Args[1]) && isFreshBase(info, call.Args[0]) {
					pass.Reportf(Warning, call.Pos(),
						"append clones cache-resident %s into fresh memory on the hot path: serve the resident bytes zero-copy (or reuse a pooled buffer)",
						exprString(pass.Fset, call.Args[1]))
				}
			case "copy":
				if len(call.Args) == 2 && isTracked(call.Args[1]) && !isPooledRawView(info, call.Args[0], pooled) {
					pass.Reportf(Warning, call.Pos(),
						"copy duplicates cache-resident %s on the hot path: serve the resident bytes zero-copy",
						exprString(pass.Fset, call.Args[1]))
				}
			}
		case *ast.SelectorExpr:
			// bytes.Clone(v) / slices.Clone(v)
			if fun.Sel.Name == "Clone" && len(call.Args) == 1 && isTracked(call.Args[0]) {
				if pn := usesPackage(info, fun.X); pn != nil {
					p := pn.Imported().Path()
					if p == "bytes" || p == "slices" {
						pass.Reportf(Warning, call.Pos(),
							"%s.Clone duplicates cache-resident %s on the hot path: serve the resident bytes zero-copy",
							p, exprString(pass.Fset, call.Args[0]))
					}
				}
			}
		}
		return true
	})
}

// isFreshBase reports whether the append base denotes brand-new empty
// memory: nil, an empty composite literal, or a []T(nil) conversion.
func isFreshBase(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.CallExpr:
		// A conversion like []byte(nil) or []byte("").
		if len(e.Args) != 1 {
			return false
		}
		if _, isType := e.Fun.(*ast.ArrayType); !isType {
			return false
		}
		switch a := ast.Unparen(e.Args[0]).(type) {
		case *ast.Ident:
			return a.Name == "nil"
		case *ast.BasicLit:
			return a.Value == `""`
		}
	}
	return false
}
