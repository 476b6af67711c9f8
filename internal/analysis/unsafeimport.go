package analysis

import "strings"

// UnsafeImport confines the code that steps outside Go's memory safety to
// one package each. Package unsafe belongs to internal/tensor, which uses
// it for exactly one thing: tensor.RawBytes, the byte view of a tensor's
// element storage that lets the data service's shared cache hold a decoded
// sample as raw element bytes and copy it back with one memmove. Every
// other package reaches raw bytes through that view, so the aliasing it
// creates is written, tested and reviewed in one place. Assembly belongs to
// two packages, each holding hardware kernels beside the portable Go bodies
// they are tested against: internal/fp16 (FP16 conversion, and the one CPU
// probe) and internal/codec/deltafp (the lane kernel that decodes eight
// DELTA lines at once).
var UnsafeImport = &Analyzer{
	Name: "unsafeimport",
	Doc:  "allow import \"unsafe\" only in internal/tensor and assembly only in internal/fp16 and internal/codec/deltafp",
	Run:  runUnsafeImport,
}

func runUnsafeImport(pass *Pass) {
	if !strings.HasSuffix(pass.Path, "/internal/fp16") && !strings.HasSuffix(pass.Path, "/internal/codec/deltafp") {
		for _, f := range pass.AsmFiles {
			pass.Reportf(Error, f.Pos(0),
				"assembly outside internal/fp16 and internal/codec/deltafp: put hardware kernels beside a portable Go body in one of them")
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
