package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadCode reports every function and method that nothing the module runs
// can reach, exported or not: surface that only its own tests call. The
// live set is the reference closure of these roots:
//
//   - main of every main package (cmd/*, examples/*, benchmark/), and
//     every init;
//   - every function a package-level var initializer mentions;
//   - the exported API of the facade, the module's root package;
//   - every method that a module type has because it implements an
//     interface declaring that method (types.Implements, so the signature
//     must match, not just the name). The interfaces counted are error and
//     the errors package's Unwrap/Is/As protocols, the named interfaces of
//     the module and of every package it imports, and every interface type
//     module code spells out (literals, generic instances).
//
// A reference is any use of a *types.Func in a live body — a call, a
// function value, a method value or expression — taken at its generic
// origin. A function kept with //lint:ignore deadcode (or in a file kept
// with //lint:file-ignore deadcode) is a root too, so what it calls stays
// without directives of its own; once something live calls it, the
// directive suppresses nothing and is reported as stale. Only a run over
// the whole module has every reference in hand, so the analyzer reports
// nothing on a run over some of its packages.
var DeadCode = &Analyzer{
	Name: "deadcode",
	Doc:  "report functions no main, init, package initializer, facade export or interface method set reaches (whole-module runs)",
	Run:  runDeadCode,
}

func runDeadCode(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok && pass.Module.dead[fn] {
				pass.Reportf(Error, fd.Name.Pos(),
					"%s is reached from no main, init, package initializer, facade export or interface method set: delete it, or keep it with //lint:ignore deadcode <reason>",
					funcName(fn))
			}
		}
	}
}

// funcName renders fn as Name or Recv.Name.
func funcName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// deadFuncs returns the functions deadcode reports: those the roots do not
// reach, except the ones reached only through a kept (directive-carrying)
// function. The kept functions themselves are reported, for their
// directives to suppress.
func deadFuncs(pkgs []*Package, funcs map[*types.Func]*funcNode, directives []*ignoreDirective) map[*types.Func]bool {
	var roots, keep []*types.Func
	ifaces := interfaces(pkgs)
	root := func(fn *types.Func) { roots = append(roots, fn) }
	for _, pkg := range pkgs {
		facade := isFacade(pkg, pkgs)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					entry := d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main")
					if entry || facade && fn.Exported() {
						root(fn)
					}
					at := Diagnostic{Analyzer: DeadCode.Name, Pos: pkg.Fset.Position(d.Name.Pos())}
					for _, dir := range directives {
						if dir.matches(at) {
							keep = append(keep, fn)
						}
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					ast.Inspect(d, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
								root(fn)
							}
						}
						return true
					})
				}
			}
		}
		markInterfaceMethods(pkg.Types, ifaces, root)
	}
	live := reach(roots, funcs)
	kept := reach(append(roots, keep...), funcs)
	dead := make(map[*types.Func]bool)
	for fn := range funcs {
		if !kept[fn] {
			dead[fn] = true
		}
	}
	for _, fn := range keep {
		if !live[fn] {
			dead[fn] = true
		}
	}
	return dead
}

// reach closes roots under the reference edges BuildModule collected.
func reach(roots []*types.Func, funcs map[*types.Func]*funcNode) map[*types.Func]bool {
	seen := make(map[*types.Func]bool)
	queue := append([]*types.Func(nil), roots...)
	for len(queue) > 0 {
		fn := queue[0].Origin()
		queue = queue[1:]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		if node := funcs[fn]; node != nil {
			queue = append(queue, node.refs...)
		}
	}
	return seen
}

// isFacade reports whether pkg is the module's root package: not a main
// package, and the import-path parent of every other package of the run.
func isFacade(pkg *Package, pkgs []*Package) bool {
	if pkg.Types.Name() == "main" {
		return false
	}
	for _, other := range pkgs {
		if other != pkg && !strings.HasPrefix(other.Path, pkg.Path+"/") {
			return false
		}
	}
	return true
}

// markInterfaceMethods marks, for each non-generic named type of pkg that
// implements one of ifaces, the methods that interface declares.
func markInterfaceMethods(pkg *types.Package, ifaces []*types.Interface, mark func(*types.Func)) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		for _, iface := range ifaces {
			if !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if fn, ok := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name()).Obj().(*types.Func); ok {
					mark(fn)
				}
			}
		}
	}
}

// interfaces collects the method-bearing interfaces a module value can be
// converted to: error and the errors protocols, the non-generic named
// interfaces declared in the module's packages and everything they import,
// and the interface types module code writes out (type assertions against
// literals, instances of generic interfaces).
func interfaces(pkgs []*Package) []*types.Interface {
	seen := make(map[*types.Interface]bool)
	var out []*types.Interface
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if ok && iface.NumMethods() > 0 && iface.IsMethodSet() && !seen[iface] {
			seen[iface] = true
			out = append(out, iface)
		}
	}
	// errors.Is, As and Unwrap assert these inside their bodies, where an
	// importer's package view does not show them.
	for _, src := range []string{"error", "interface{ Unwrap() error }", "interface{ Unwrap() []error }",
		"interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		if tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, src); err == nil {
			add(tv.Type)
		}
	}
	visited := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}
