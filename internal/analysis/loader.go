package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked (non-test) package.
type Package struct {
	// Path is the import path within the module (e.g. "scipp/internal/dist").
	Path string
	// Dir is the package's directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// AsmFiles are the directory's assembly (.s) files, whatever their
	// build constraints, registered in Fset so findings can point at them.
	AsmFiles []*token.File
	Types    *types.Package
	Info     *types.Info
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports resolve to source directories
// under the module root; standard-library imports resolve through the
// go/importer source importer.
type Loader struct {
	ModulePath string
	ModuleRoot string
	Fset       *token.FileSet

	std     types.ImporterFrom
	pkgs    map[string]*Package       // by import path, fully loaded
	loading map[string]bool           // import-cycle guard
	typed   map[string]*types.Package // importer cache
}

// NewLoader returns a Loader for the module rooted at root. The module path
// is read from root's go.mod.
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	return &Loader{
		ModulePath: mod,
		ModuleRoot: root,
		Fset:       fset,
		std:        std,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
		typed:      make(map[string]*types.Package),
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// LoadAll walks the module tree and loads every non-test package. Hidden
// directories and testdata trees are skipped.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ok, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if ok {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if ok, err := isBuiltGoFile(dir, e); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// isBuiltGoFile reports whether e is a non-test Go file that the go command
// would build in dir for this host: its GOOS/GOARCH file-name suffix and
// //go:build line are evaluated as go build evaluates them by default, so a
// pair like f_amd64.go / f_other.go contributes one file, not two.
func isBuiltGoFile(dir string, e os.DirEntry) (bool, error) {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false, nil
	}
	return build.Default.MatchFile(dir, name)
}

// LoadDir parses and type-checks the non-test package in dir, registering it
// under the given import path. Test files (_test.go) and files the host's
// build constraints exclude are left out: the analyzers govern the code
// that ships, as go build selects it.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var asm []*token.File
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".s") {
			asm = append(asm, l.Fset.AddFile(filepath.Join(dir, name), -1, 0))
			continue
		}
		ok, err := isBuiltGoFile(dir, e)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, AsmFiles: asm, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	l.typed[path] = tpkg
	return pkg, nil
}

// loaderImporter resolves imports during type checking.
type loaderImporter Loader

// Import implements types.Importer.
func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if tp, ok := l.typed[path]; ok {
		return tp, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		dir := l.ModuleRoot
		if rel != "" {
			dir = filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	tp, err := li.std.ImportFrom(path, srcDir, mode)
	if err != nil {
		return nil, err
	}
	l.typed[path] = tp
	return tp, nil
}
