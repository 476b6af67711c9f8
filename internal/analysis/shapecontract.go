package analysis

import (
	"go/ast"
	"go/types"
)

// ShapeContract enforces the per-sample shape contract on hot paths. With
// variable-shape samples, a dataset carries two distinct shapes: each
// sample's own decoded shape (the decoder's OutputShape, or ProbeShape on
// the encoded blob) and the archive-wide MaxShape() upper bound, which is
// good for sizing at setup only. Consulting MaxShape() inside
// a per-sample hot loop is almost always a bug in waiting: the bound is
// loop-invariant (so the call belongs hoisted to setup), and sizing
// per-sample work off the bound silently re-introduces the fixed-shape
// assumption — every ragged sample pays the worst case, which is exactly
// the over-allocation the shape contract exists to remove.
var ShapeContract = &Analyzer{
	Name: "shapecontract",
	Doc:  "flag dataset-wide MaxShape() bounds consulted inside per-sample hot-path loops",
	Run:  runShapeContract,
}

func runShapeContract(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			root, hot := pass.Module.HotDecl(pass.Info, fd)
			if !hot {
				continue
			}
			via := " (//scipp:hotpath)"
			if root != nil && root.Name() != fd.Name.Name {
				via = " (hot via //scipp:hotpath root " + root.Name() + ")"
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch loop := n.(type) {
				case *ast.ForStmt:
					body = loop.Body
				case *ast.RangeStmt:
					body = loop.Body
				default:
					return true
				}
				reportMaxShapeCalls(pass, body, via)
				return false // the loop body was just scanned in full
			})
		}
	}
}

// reportMaxShapeCalls flags every MaxShape method call under body,
// including ones in nested loops.
func reportMaxShapeCalls(pass *Pass, body ast.Node, via string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "MaxShape" {
			return true
		}
		fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() == nil {
			return true
		}
		pass.Reportf(Warning, call.Pos(),
			"MaxShape() consulted inside a per-sample loop%s: the bound is loop-invariant setup for pools and caches — hoist it, and size per-sample work from the sample's own shape (OutputShape/ProbeShape)", via)
		return true
	})
}
