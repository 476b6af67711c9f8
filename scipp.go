// Package scipp is a Go reproduction of "Preprocessing Pipeline
// Optimization for Scientific Deep Learning Workloads" (Ibrahim & Oliker,
// IPPS 2022): domain-specific sample encoders/decoders for scientific
// machine-learning data, integrated into a DALI-like loading pipeline, with
// a simulated-accelerator execution substrate and a full benchmark harness
// for every table and figure in the paper's evaluation.
//
// The package is a facade over the internal implementation:
//
//   - Encoding/decoding: EncodeDeepCAM / EncodeCosmoFlow produce the
//     domain-encoded blobs (§V); OpenFormat + DecodeFull reverse them,
//     emitting FP16 samples with fused preprocessing (§VI).
//   - Datasets and loading: BuildClimateDataset / BuildCosmoDataset
//     generate encoded synthetic datasets; NewLoader wires the decode
//     plugins (CPU or simulated GPU) into a prefetching loader.
//   - Training: TrainCosmoFlow runs one Fig 7 convergence repetition on a
//     real from-scratch model.
//   - Evaluation: the Fig*/Table*/Headlines functions regenerate every
//     evaluation artifact over the Table I platform models.
package scipp

import (
	"scipp/internal/bench"
	"scipp/internal/codec"
	"scipp/internal/codec/deltafp"
	"scipp/internal/codec/lut"
	"scipp/internal/core"
	"scipp/internal/gpusim"
	"scipp/internal/pipeline"
	"scipp/internal/platform"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
	"scipp/internal/train"
)

// Re-exported core types. These aliases are the supported public names; the
// internal packages they point at are implementation detail.
type (
	// App identifies one of the two studied workloads.
	App = core.App
	// Encoding selects how dataset samples are stored.
	Encoding = core.Encoding
	// Plugin selects where sample decode runs.
	Plugin = pipeline.Plugin
	// Platform is one modeled evaluation system.
	Platform = platform.Platform
	// Tensor is the dense numeric tensor samples decode into.
	Tensor = tensor.Tensor
	// Dataset is indexed access to encoded samples.
	Dataset = pipeline.Dataset
	// MemDataset is an in-memory Dataset.
	MemDataset = pipeline.MemDataset
	// Loader drives prefetched decoding of a Dataset.
	Loader = pipeline.Loader
	// Batch is one assembled minibatch.
	Batch = pipeline.Batch
	// Format opens encoded blobs.
	Format = codec.Format
	// ChunkDecoder decodes one sample in independent chunks.
	ChunkDecoder = codec.ChunkDecoder
	// ClimateConfig configures CAM5-like sample generation.
	ClimateConfig = synthetic.ClimateConfig
	// CosmoConfig configures cosmology sample generation.
	CosmoConfig = synthetic.CosmoConfig
	// ClimateSample is one CAM5-like sample.
	ClimateSample = synthetic.ClimateSample
	// CosmoSample is one 4-redshift universe sub-volume.
	CosmoSample = synthetic.CosmoSample
	// PaddedBatch is a ragged minibatch padded dense, with a validity mask.
	PaddedBatch = pipeline.PaddedBatch
	// TrainConfig configures a convergence run.
	TrainConfig = train.Config
	// LoaderConfig configures NewLoader.
	LoaderConfig = core.LoaderConfig
	// Scenario describes one node-pipeline simulation.
	Scenario = bench.Scenario
	// StepResult is a simulated steady-state result.
	StepResult = bench.StepResult
	// ThroughputRow is one Fig 8/10/11 table row.
	ThroughputRow = bench.ThroughputRow
	// BreakdownRow is one Fig 9/12 profile row.
	BreakdownRow = bench.BreakdownRow
	// AppModel is a calibrated per-sample workload model.
	AppModel = bench.AppModel
	// Device is a simulated accelerator.
	Device = gpusim.Device
)

// Workload identifiers.
const (
	DeepCAM   = core.DeepCAM
	CosmoFlow = core.CosmoFlow
)

// Dataset encodings.
const (
	Baseline       = core.Baseline
	Gzip           = core.Gzip
	PluginEncoding = core.Plugin
)

// Decode placements.
const (
	CPUPlugin = pipeline.CPUPlugin
	GPUPlugin = pipeline.GPUPlugin
)

// Platforms returns the three Table I systems.
func Platforms() []Platform { return platform.All() }

// PlatformByName looks up a Table I system.
func PlatformByName(name string) (Platform, error) { return platform.ByName(name) }

// DefaultClimateConfig returns the paper-scale DeepCAM data configuration.
func DefaultClimateConfig() ClimateConfig { return synthetic.DefaultClimateConfig() }

// DefaultCosmoConfig returns the paper-scale CosmoFlow data configuration.
func DefaultCosmoConfig() CosmoConfig { return synthetic.DefaultCosmoConfig() }

// GenerateClimate produces one synthetic CAM5-like sample.
func GenerateClimate(cfg ClimateConfig, index int) (*ClimateSample, error) {
	return synthetic.GenerateClimate(cfg, index)
}

// GenerateCosmo produces one synthetic universe sub-volume.
func GenerateCosmo(cfg CosmoConfig, index int) (*CosmoSample, error) {
	return synthetic.GenerateCosmo(cfg, index)
}

// EncodeDeepCAM compresses a [C, H, W] FP32 climate stack with the paper's
// differential floating-point scheme (§V-A).
func EncodeDeepCAM(data *Tensor) ([]byte, error) {
	return deltafp.Encode(data, deltafp.Options{})
}

// EncodeCosmoFlow compresses a 4-redshift voxel volume with the paper's
// group-lookup-table scheme (§V-B).
func EncodeCosmoFlow(s *CosmoSample) ([]byte, error) {
	return lut.Encode(s.Channels, s.Dim)
}

// FormatFor returns the decode format for (app, enc).
func FormatFor(app App, enc Encoding) Format { return core.FormatFor(app, enc) }

// OpenFormat looks up a registered format by name ("deltafp", "cosmo-lut",
// "raw-deepcam", "raw-cosmo", "gzip+raw-cosmo", ...).
func OpenFormat(name string) (Format, error) { return codec.Lookup(name) }

// DecodeFull decodes an encoded blob with the given format, serially.
func DecodeFull(f Format, blob []byte) (*Tensor, error) {
	cd, err := f.Open(blob)
	if err != nil {
		return nil, err
	}
	return codec.Decode(cd)
}

// DecodeOnDevice decodes an encoded blob on a simulated accelerator and
// returns the decoded tensor plus the modeled kernel time in seconds.
func DecodeOnDevice(f Format, blob []byte, p Platform) (*Tensor, float64, error) {
	cd, err := f.Open(blob)
	if err != nil {
		return nil, 0, err
	}
	return gpusim.New(p.GPU).Execute(cd)
}

// BuildClimateDataset generates an encoded DeepCAM dataset under cfg.
func BuildClimateDataset(cfg ClimateConfig, n int, enc Encoding) (*MemDataset, error) {
	return core.BuildClimateDataset(cfg, n, enc)
}

// BuildCosmoDataset generates an encoded CosmoFlow dataset under cfg.
func BuildCosmoDataset(cfg CosmoConfig, n int, enc Encoding) (*MemDataset, error) {
	return core.BuildCosmoDataset(cfg, n, enc)
}

// NewLoader builds a prefetching loader over ds.
func NewLoader(ds Dataset, cfg LoaderConfig) (*Loader, error) { return core.NewLoader(ds, cfg) }

// TrainCosmoFlow runs one Fig 7 repetition, returning per-epoch loss.
func TrainCosmoFlow(dataCfg CosmoConfig, cfg TrainConfig) ([]float64, error) {
	return train.CosmoFlow(dataCfg, cfg)
}

// Calibrate measures the per-sample workload model for an app at the given
// fraction of paper scale.
func Calibrate(app App, scale float64) (AppModel, error) { return bench.Calibrate(app, scale) }

// Simulate evaluates the node pipeline model for one scenario.
func Simulate(sc Scenario) (StepResult, error) { return bench.Simulate(sc) }

// Evaluation-artifact generators (see DESIGN.md §5 for the experiment index).
var (
	// TableI formats the system-architecture table.
	TableI = bench.TableI
	// TableII formats the software-environment table.
	TableII = bench.TableII
	// Fig5 analyzes CosmoFlow sample content.
	Fig5 = bench.Fig5
	// Fig6 runs the DeepCAM convergence comparison.
	Fig6 = bench.Fig6
	// Fig7 runs the repeated CosmoFlow convergence comparison.
	Fig7 = bench.Fig7
	// Fig8 sweeps DeepCAM node throughput.
	Fig8 = bench.Fig8
	// Fig9 profiles the DeepCAM step-time breakdown.
	Fig9 = bench.Fig9
	// Fig10 sweeps CosmoFlow small-set throughput.
	Fig10 = bench.Fig10
	// Fig11 sweeps CosmoFlow large-set throughput.
	Fig11 = bench.Fig11
	// Fig12 profiles the CosmoFlow step-time breakdown.
	Fig12 = bench.Fig12
	// Headlines aggregates the headline speedups.
	Headlines = bench.Headlines
)

// SimulateNode runs the discrete-event node simulation for `steps` training
// steps, returning throughput and per-resource busy fractions.
func SimulateNode(sc Scenario, steps int) (bench.NodeSimResult, error) {
	return bench.SimulateNode(sc, steps, nil)
}

// ScaleOut projects weak scaling of a scenario across node counts.
func ScaleOut(sc Scenario, nodes []int) ([]bench.ScaleRow, error) {
	return bench.ScaleOut(sc, nodes)
}

// TimeToSolution combines real epochs-to-target with the modeled epoch time
// on a platform (CosmoFlow).
func TimeToSolution(scale float64, p Platform, target float64, dataCfg CosmoConfig, trainCfg TrainConfig) (bench.TTSResult, error) {
	rs, err := bench.TimeToSolution(scale, []Platform{p}, target, dataCfg, trainCfg)
	if err != nil {
		return bench.TTSResult{}, err
	}
	return rs[0], nil
}
