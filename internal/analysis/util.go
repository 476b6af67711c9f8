package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// exprString renders a short source form of e for diagnostic messages.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "<expr>"
	}
	s := buf.String()
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// callResults returns the result tuple of call, or nil for conversions and
// builtins without a signature.
func callResults(info *types.Info, call *ast.CallExpr) *types.Tuple {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Results()
}

// tupleHasError reports whether any result in tup is error-typed.
func tupleHasError(tup *types.Tuple) bool {
	if tup == nil {
		return false
	}
	for i := 0; i < tup.Len(); i++ {
		if isErrorType(tup.At(i).Type()) {
			return true
		}
	}
	return false
}

// pkgFunc matches a call to pkgpath.name (package-level function).
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgpath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgpath
}

// usesPackage returns the *types.PkgName if expr is a reference to an
// imported package.
func usesPackage(info *types.Info, e ast.Expr) *types.PkgName {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

// funcDocs maps each function body (FuncDecl) to its doc-comment text, for
// "documented panic" allowances.
func funcDocs(files []*ast.File) map[*ast.BlockStmt]string {
	out := make(map[*ast.BlockStmt]string)
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			doc := ""
			if fd.Doc != nil {
				doc = fd.Doc.Text()
			}
			out[fd.Body] = doc
		}
	}
	return out
}
