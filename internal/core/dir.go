package core

//lint:file-ignore deadcode the on-disk climate and indexed TFRecord layouts that ROADMAP item 7's executed rows read

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"scipp/internal/codec/rawfmt"
	"scipp/internal/h5lite"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
	"scipp/internal/tfrecord"
)

// WriteClimateDir persists an encoded climate dataset as one file per
// sample — the per-sample-file layout the DeepCAM HDF5 dataset uses, and
// what gets staged onto node-local NVMe in Fig 1. Labels are stored in a
// sidecar labels.h5l so every encoding (including the plugin blobs, which
// carry no labels) round-trips.
func WriteClimateDir(dir string, ds *pipeline.MemDataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	labels := h5lite.NewFile()
	labels.Attrs["samples"] = fmt.Sprint(ds.Len())
	for i, blob := range ds.Blobs {
		if err := os.WriteFile(samplePath(dir, i), blob, 0o644); err != nil {
			return err
		}
		labels.Put(fmt.Sprintf("label/%06d", i), ds.Labels[i])
	}
	return h5lite.WriteFile(filepath.Join(dir, "labels.h5l"), labels)
}

func samplePath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("sample-%06d.bin", i))
}

// OpenClimateDir opens a directory written by WriteClimateDir as a lazily
// reading Dataset: blobs come off the filesystem per access (the real IO
// path), labels from the preloaded sidecar.
func OpenClimateDir(dir string) (pipeline.Dataset, error) {
	lf, err := h5lite.ReadFile(filepath.Join(dir, "labels.h5l"))
	if err != nil {
		return nil, fmt.Errorf("core: opening labels sidecar: %w", err)
	}
	var n int
	if _, err := fmt.Sscan(lf.Attrs["samples"], &n); err != nil || n < 0 {
		return nil, fmt.Errorf("core: bad samples attr %q", lf.Attrs["samples"])
	}
	labels := make([]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		lb, ok := lf.Get(fmt.Sprintf("label/%06d", i))
		if !ok {
			return nil, fmt.Errorf("core: labels sidecar missing label %d", i)
		}
		labels[i] = lb
	}
	return &pipeline.FuncDataset{
		N: n,
		BlobFn: func(i int) ([]byte, error) {
			return os.ReadFile(samplePath(dir, i))
		},
		LabelFn: func(i int) (*tensor.Tensor, error) {
			return labels[i], nil
		},
	}, nil
}

// OpenCosmoTFRecordIndexed opens a plain (uncompressed) TFRecord cosmo
// dataset through a random-access index — the DALI-style access pattern
// that lets the loader shuffle without scanning the shard. If idxPath names
// an existing sidecar index it is used; otherwise the index is built by one
// scan. Labels are parsed lazily from each record.
func OpenCosmoTFRecordIndexed(path, idxPath string) (pipeline.Dataset, io.Closer, error) {
	x, err := tfrecord.OpenIndexed(path, idxPath)
	if err != nil {
		return nil, nil, err
	}
	ds := &pipeline.FuncDataset{
		N: x.Len(),
		BlobFn: func(i int) ([]byte, error) {
			return x.Record(i)
		},
		LabelFn: func(i int) (*tensor.Tensor, error) {
			rec, err := x.Record(i)
			if err != nil {
				return nil, err
			}
			params, err := rawfmt.Params(rec)
			if err != nil {
				return nil, err
			}
			label := tensor.New(tensor.F32, 4)
			copy(label.F32s, params[:])
			return label, nil
		},
	}
	return ds, x, nil
}

// WriteCosmoIndex builds and persists a sidecar index for a plain TFRecord
// file written by WriteCosmoTFRecord.
func WriteCosmoIndex(recordPath, idxPath string) error {
	f, err := os.Open(recordPath)
	if err != nil {
		return err
	}
	defer f.Close()
	ix, err := tfrecord.BuildIndex(f)
	if err != nil {
		return err
	}
	out, err := os.Create(idxPath)
	if err != nil {
		return err
	}
	if _, err := ix.WriteTo(out); err != nil {
		//lint:ignore uncheckederr best-effort cleanup; the write error already propagates
		out.Close()
		return err
	}
	return out.Close()
}
