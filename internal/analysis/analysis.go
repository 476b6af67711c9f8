// Package analysis is the repository's static-analysis framework: a small,
// stdlib-only (go/ast, go/parser, go/types) diagnostic engine plus the
// repo-specific analyzers that enforce the invariants the paper reproduction
// depends on — deterministic randomness and timing, codec registry and
// error contracts, panic discipline in library code, and concurrency
// hygiene on the pipeline hot paths.
//
// Diagnostics can be suppressed at a site with
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the offending line or the line directly above it, or for a whole
// file with
//
//	//lint:file-ignore <analyzer> <reason>
//
// The reason is mandatory: an unexplained suppression is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Severity ranks a diagnostic.
type Severity int

// Severities, in increasing order of gravity.
const (
	Info Severity = iota
	Warning
	Error
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	default:
		return "error"
	}
}

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Analyzer string
	Severity Severity
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: [%s] %s",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Severity, d.Analyzer, d.Message)
}

// Analyzer is one named check run over a package.
type Analyzer struct {
	// Name identifies the analyzer in reports and lint:ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects the pass's package and reports findings via pass.Report.
	Run func(pass *Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path (e.g. "scipp/internal/codec/lut").
	// Scope decisions (which analyzers apply where) key off this.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	// AsmFiles are the package directory's assembly files (Package.AsmFiles).
	AsmFiles []*token.File
	Pkg      *types.Package
	Info     *types.Info
	// Module is the module-wide hot-path call graph over every package of
	// the run (see BuildModule); flow-aware analyzers key off it.
	Module *Module

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(sev Severity, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Severity: sev,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InternalPath reports whether the pass's package lives under internal/
// (library code, as opposed to cmd/ tools and examples/).
func (p *Pass) InternalPath() bool {
	return strings.Contains(p.Path, "/internal/")
}

// ignoreDirective is one parsed //lint:ignore or //lint:file-ignore comment.
type ignoreDirective struct {
	file      string
	line      int
	analyzers []string // names, or ["*"]
	reason    string
	fileWide  bool
	used      bool
	pos       token.Position
}

func (d *ignoreDirective) matches(diag Diagnostic) bool {
	if diag.Pos.Filename != d.file {
		return false
	}
	if !d.fileWide && diag.Pos.Line != d.line && diag.Pos.Line != d.line+1 {
		return false
	}
	for _, a := range d.analyzers {
		if a == "*" || a == diag.Analyzer {
			return true
		}
	}
	return false
}

// parseDirectives extracts lint directives from a file's comments.
func parseDirectives(fset *token.FileSet, f *ast.File, diags *[]Diagnostic) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			fileWide := false
			var rest string
			switch {
			case strings.HasPrefix(text, "lint:ignore "):
				rest = strings.TrimPrefix(text, "lint:ignore ")
			case strings.HasPrefix(text, "lint:file-ignore "):
				rest = strings.TrimPrefix(text, "lint:file-ignore ")
				fileWide = true
			default:
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				*diags = append(*diags, Diagnostic{
					Analyzer: "lintdirective",
					Severity: Error,
					Pos:      pos,
					Message:  "malformed lint directive: want //lint:ignore <analyzer> <reason>",
				})
				continue
			}
			out = append(out, &ignoreDirective{
				file:      pos.Filename,
				line:      pos.Line,
				analyzers: strings.Split(fields[0], ","),
				reason:    strings.Join(fields[1:], " "),
				fileWide:  fileWide,
				pos:       pos,
			})
		}
	}
	return out
}

// RunAnalyzers applies each analyzer to each package and returns the
// surviving (non-suppressed) diagnostics sorted by position. The module's
// hot-path call graph is built once over all packages and shared by every
// pass, so cross-package reachability is consistent within the run.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	var directives []*ignoreDirective
	module := BuildModule(pkgs)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			directives = append(directives, parseDirectives(pkg.Fset, f, &raw)...)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Path:     pkg.Path,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				AsmFiles: pkg.AsmFiles,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Module:   module,
				diags:    &raw,
			}
			a.Run(pass)
		}
	}
	var out []Diagnostic
	for _, d := range raw {
		suppressed := false
		for _, dir := range directives {
			if dir.matches(d) {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// All returns the repository's analyzer set.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		CodecContract,
		Panics,
		Concurrency,
		UncheckedError,
		Retry,
		GuardedSend,
		HotAlloc,
		ShapeContract,
		PoolLeak,
		CopyDiscipline,
		WorkerGuard,
		BreakerState,
		UnsafeImport,
	}
}
