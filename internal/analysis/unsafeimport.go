package analysis

import "strings"

// UnsafeImport confines the code that steps outside Go's memory safety to
// one package each. Package unsafe belongs to internal/tensor, which uses
// it for exactly one thing: tensor.RawBytes, the byte view of a tensor's
// element storage that lets the data service's shared cache hold a decoded
// sample as raw element bytes and copy it back with one memmove. Every
// other package reaches raw bytes through that view, so the aliasing it
// creates is written, tested and reviewed in one place. Assembly belongs to
// internal/fp16, whose hardware conversion kernels sit beside the portable
// Go bodies they are tested against.
var UnsafeImport = &Analyzer{
	Name: "unsafeimport",
	Doc:  "allow import \"unsafe\" only in internal/tensor and assembly only in internal/fp16",
	Run:  runUnsafeImport,
}

func runUnsafeImport(pass *Pass) {
	if !strings.HasSuffix(pass.Path, "/internal/fp16") {
		for _, f := range pass.AsmFiles {
			pass.Reportf(Error, f.Pos(0),
				"assembly outside internal/fp16: put hardware kernels behind internal/fp16's portable bodies")
		}
	}
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
