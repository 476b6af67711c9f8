// Command scipplint runs the repository's static-analysis pass
// (internal/analysis) over the module and reports violations of the
// determinism, panic, retry, guarded-send, error-handling, and hot-path
// memory-discipline invariants, and functions nothing the module runs can
// reach (deadcode). It exits 0 when clean at the chosen severity,
// 1 on findings, 2 on load failure.
//
// Usage:
//
//	scipplint [-root dir] [-v] [-json] [-severity level] [patterns...]
//
// The only supported patterns are "./..." (the whole module, the default)
// and module-relative package directories such as ./internal/pipeline.
// Only a ./... run reports deadcode and stale lint directives: a run over
// some packages lacks the callers and findings elsewhere in the module.
// -severity sets the failure threshold: findings below it are still
// printed but do not affect the exit code. -json emits the findings as a
// JSON array (one object per diagnostic) instead of text lines.
package main

//lint:file-ignore uncheckederr the command's stdout/stderr are injected io.Writers for testability; a failed diagnostic write has nowhere better to go

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"scipp/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// run is the testable body of the command: parses args, loads packages,
// runs the analyzers, renders to stdout/stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scipplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "module root (directory containing go.mod)")
	verbose := fs.Bool("v", false, "list analyzers and package count")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	sevFlag := fs.String("severity", "warning", "failure threshold: info, warning, or error")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	threshold, err := parseSeverity(*sevFlag)
	if err != nil {
		fmt.Fprintln(stderr, "scipplint:", err)
		return 2
	}

	modRoot, err := findModuleRoot(*root)
	if err != nil {
		fmt.Fprintln(stderr, "scipplint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(modRoot)
	if err != nil {
		fmt.Fprintln(stderr, "scipplint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var pkgs []*analysis.Package
	var whole bool
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			all, err := loader.LoadAll()
			if err != nil {
				fmt.Fprintln(stderr, "scipplint:", err)
				return 2
			}
			pkgs, whole = append(pkgs, all...), true
		default:
			dir := filepath.Join(modRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
			rel, err := filepath.Rel(modRoot, dir)
			if err != nil || strings.HasPrefix(rel, "..") {
				fmt.Fprintf(stderr, "scipplint: pattern %q escapes the module\n", pat)
				return 2
			}
			path := loader.ModulePath
			if rel != "." {
				path = loader.ModulePath + "/" + filepath.ToSlash(rel)
			}
			pkg, err := loader.LoadDir(dir, path)
			if err != nil {
				fmt.Fprintln(stderr, "scipplint:", err)
				return 2
			}
			pkgs = append(pkgs, pkg)
		}
	}

	analyzers := analysis.All()
	if *verbose {
		fmt.Fprintf(stdout, "scipplint: %d packages, %d analyzers:\n", len(pkgs), len(analyzers))
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	diags := analysis.RunAnalyzers(pkgs, analyzers, whole)
	failing := 0
	jsonOut := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		// Report module-relative paths for stable, clickable output.
		if rel, err := filepath.Rel(modRoot, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		if d.Severity >= threshold {
			failing++
		}
		if *asJSON {
			jsonOut = append(jsonOut, jsonDiagnostic{
				Analyzer: d.Analyzer,
				Severity: d.Severity.String(),
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
			continue
		}
		fmt.Fprintln(stdout, d)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOut); err != nil {
			fmt.Fprintln(stderr, "scipplint:", err)
			return 2
		}
	}
	if failing > 0 {
		fmt.Fprintf(stderr, "scipplint: %d finding(s) at or above %s\n", failing, threshold)
		return 1
	}
	if *verbose {
		fmt.Fprintln(stdout, "scipplint: clean")
	}
	return 0
}

// parseSeverity maps a flag value to the analysis severity scale.
func parseSeverity(s string) (analysis.Severity, error) {
	switch strings.ToLower(s) {
	case "info":
		return analysis.Info, nil
	case "warning", "warn":
		return analysis.Warning, nil
	case "error":
		return analysis.Error, nil
	}
	return 0, fmt.Errorf("unknown severity %q: want info, warning, or error", s)
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
