package analysis

import "strings"

// UnsafeImport confines package unsafe to internal/tensor. The module uses
// unsafe for exactly one thing: tensor.RawBytes, the byte view of a
// tensor's element storage that lets the data service's shared cache hold
// a decoded sample as raw element bytes and copy it back with one memmove.
// Every other package reaches raw bytes through that view, so the aliasing
// it creates is written, tested and reviewed in one place.
var UnsafeImport = &Analyzer{
	Name: "unsafeimport",
	Doc:  "allow import \"unsafe\" only in internal/tensor",
	Run:  runUnsafeImport,
}

func runUnsafeImport(pass *Pass) {
	if strings.HasSuffix(pass.Path, "/internal/tensor") {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"unsafe"` {
				pass.Reportf(Error, imp.Pos(),
					"import of unsafe outside internal/tensor: view element storage as bytes through tensor.RawBytes")
			}
		}
	}
}
