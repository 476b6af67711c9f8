// Package core wires the paper's pieces together: it builds encoded datasets
// from the synthetic workload generators (baseline container format, gzip
// variant, or domain-specific plugin encoding), selects the matching decode
// Format, and constructs loaders. It is the integration layer the public
// scipp package re-exports.
package core

import (
	"bytes"
	"fmt"
	"os"

	"scipp/internal/codec"
	"scipp/internal/codec/deltafp"
	"scipp/internal/codec/gzipc"
	"scipp/internal/codec/lut"
	"scipp/internal/codec/rawfmt"
	// Formats self-register with the codec registry in their package inits;
	// zfpc is linked here purely so its comparator formats are loadable by
	// name through the public OpenFormat.
	_ "scipp/internal/codec/zfpc"
	"scipp/internal/gpusim"
	"scipp/internal/pipeline"
	"scipp/internal/platform"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
	"scipp/internal/tfrecord"
)

// App identifies one of the two studied workloads.
type App int

// The two MLPerf HPC workloads of the paper.
const (
	DeepCAM App = iota
	CosmoFlow
)

// String names the app.
func (a App) String() string {
	if a == CosmoFlow {
		return "cosmoflow"
	}
	return "deepcam"
}

// Encoding selects how a dataset's samples are stored.
type Encoding int

// Dataset encodings compared in §IX.
const (
	// Baseline is the stock container format (HDF5-like files for DeepCAM,
	// TFRecord payloads for CosmoFlow) decoded and preprocessed on the CPU.
	Baseline Encoding = iota
	// Gzip is the conventional-compression variant of the baseline.
	Gzip
	// Plugin is the paper's domain-specific encoding (deltafp / LUT).
	Plugin
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case Gzip:
		return "gzip"
	case Plugin:
		return "plugin"
	}
	return "base"
}

// FormatFor returns the decode format matching (app, enc).
func FormatFor(app App, enc Encoding) codec.Format {
	switch app {
	case CosmoFlow:
		switch enc {
		case Gzip:
			return gzipc.Wrap(rawfmt.Cosmo())
		case Plugin:
			return lut.Format()
		default:
			return rawfmt.Cosmo()
		}
	default:
		switch enc {
		case Gzip:
			return gzipc.Wrap(rawfmt.DeepCAM())
		case Plugin:
			return deltafp.Format()
		default:
			return rawfmt.DeepCAM()
		}
	}
}

// BuildClimateDataset generates n synthetic CAM5-like samples under cfg and
// encodes them with enc. Labels are the per-pixel segmentation masks.
func BuildClimateDataset(cfg synthetic.ClimateConfig, n int, enc Encoding) (*pipeline.MemDataset, error) {
	ds := &pipeline.MemDataset{}
	for i := 0; i < n; i++ {
		s, err := synthetic.GenerateClimate(cfg, i)
		if err != nil {
			return nil, err
		}
		blob, err := encodeClimate(s, enc)
		if err != nil {
			return nil, fmt.Errorf("core: sample %d: %w", i, err)
		}
		ds.Blobs = append(ds.Blobs, blob)
		ds.Labels = append(ds.Labels, s.Labels)
	}
	return ds, nil
}

func encodeClimate(s *synthetic.ClimateSample, enc Encoding) ([]byte, error) {
	switch enc {
	case Plugin:
		return deltafp.Encode(s.Data, deltafp.Options{})
	default:
		var buf bytes.Buffer
		if err := synthetic.ClimateToH5(s).Write(&buf); err != nil {
			return nil, err
		}
		if enc == Gzip {
			return gzipc.Encode(buf.Bytes(), 0)
		}
		return buf.Bytes(), nil
	}
}

// BuildCosmoDataset generates n synthetic universe sub-volumes under cfg and
// encodes them with enc. Labels are the four cosmological parameters.
func BuildCosmoDataset(cfg synthetic.CosmoConfig, n int, enc Encoding) (*pipeline.MemDataset, error) {
	ds := &pipeline.MemDataset{}
	for i := 0; i < n; i++ {
		s, err := synthetic.GenerateCosmo(cfg, i)
		if err != nil {
			return nil, err
		}
		blob, err := encodeCosmo(s, enc)
		if err != nil {
			return nil, fmt.Errorf("core: sample %d: %w", i, err)
		}
		label := tensor.New(tensor.F32, 4)
		copy(label.F32s, s.Params[:])
		ds.Blobs = append(ds.Blobs, blob)
		ds.Labels = append(ds.Labels, label)
	}
	return ds, nil
}

func encodeCosmo(s *synthetic.CosmoSample, enc Encoding) ([]byte, error) {
	switch enc {
	case Plugin:
		return lut.Encode(s.Channels, s.Dim)
	case Gzip:
		return gzipc.Encode(synthetic.CosmoToRecord(s), 0)
	default:
		return synthetic.CosmoToRecord(s), nil
	}
}

// BuildWeatherDataset generates n irregular weather-station records under
// cfg. The blobs are raw-series records (the ragged domain's shape lives in
// each record's header, so there is no alternative encoding); labels are
// the four per-station climate normals.
func BuildWeatherDataset(cfg synthetic.WeatherConfig, n int) (*pipeline.MemDataset, error) {
	ds := &pipeline.MemDataset{}
	for i := 0; i < n; i++ {
		s, err := synthetic.GenerateWeather(cfg, i)
		if err != nil {
			return nil, err
		}
		ds.Blobs = append(ds.Blobs, synthetic.WeatherToRecord(s))
		ds.Labels = append(ds.Labels, s.Label())
	}
	return ds, nil
}

// LoaderConfig is the user-facing loader configuration.
type LoaderConfig struct {
	App      App
	Encoding Encoding
	Plugin   pipeline.Plugin
	Platform platform.Platform
	Batch    int
}

// NewLoader builds a pipeline.Loader for ds under cfg, wiring the matching
// format and, for the GPU plugin, a simulated device of the platform's GPU.
func NewLoader(ds pipeline.Dataset, cfg LoaderConfig) (*pipeline.Loader, error) {
	pc := pipeline.Config{
		Format: FormatFor(cfg.App, cfg.Encoding),
		Plugin: cfg.Plugin,
		Batch:  cfg.Batch,
	}
	if cfg.Plugin == pipeline.GPUPlugin {
		if cfg.Encoding != Plugin {
			return nil, fmt.Errorf("core: GPU decode requires the plugin encoding (gzip/baseline decode is host-CPU only)")
		}
		pc.Device = gpusim.New(cfg.Platform.GPU)
	}
	return pipeline.New(ds, pc)
}

// WriteCosmoTFRecord stores a cosmo dataset's blobs as a TFRecord file
// (optionally gzip-compressed), the container the benchmark distributes.
func WriteCosmoTFRecord(path string, ds *pipeline.MemDataset, gz bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var w *tfrecord.Writer
	if gz {
		w = tfrecord.NewGzipWriter(f)
	} else {
		w = tfrecord.NewWriter(f)
	}
	for _, blob := range ds.Blobs {
		if err := w.Write(blob); err != nil {
			//lint:ignore uncheckederr best-effort cleanup; the write error already propagates
			f.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		//lint:ignore uncheckederr best-effort cleanup; the writer error already propagates
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCosmoTFRecord loads a cosmo dataset written by WriteCosmoTFRecord.
// Labels are re-derived from the record payloads.
func ReadCosmoTFRecord(path string, gz bool) (*pipeline.MemDataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r *tfrecord.Reader
	if gz {
		r, err = tfrecord.NewGzipReader(f)
		if err != nil {
			return nil, err
		}
		defer r.Close()
	} else {
		r = tfrecord.NewReader(f)
	}
	recs, err := tfrecord.ReadAll(r)
	if err != nil {
		return nil, err
	}
	ds := &pipeline.MemDataset{}
	for i, rec := range recs {
		params, err := rawfmt.Params(rec)
		if err != nil {
			return nil, fmt.Errorf("core: record %d: %w", i, err)
		}
		label := tensor.New(tensor.F32, 4)
		copy(label.F32s, params[:])
		ds.Blobs = append(ds.Blobs, rec)
		ds.Labels = append(ds.Labels, label)
	}
	return ds, nil
}
