// Package codec defines the encoder/decoder plugin contract of the paper's
// preprocessing pipeline (§V–VI).
//
// An encoded sample is an opaque blob plus a Format that can open it into a
// ChunkDecoder: a decoder whose work decomposes into independent chunks
// ("we use metadata that enables independent decoding of lines, thus
// enabling efficient execution on accelerator architectures"). The CPU
// plugin assigns chunks to worker threads; the simulated-GPU plugin assigns
// them to warps, using the Workload profile for cost accounting.
package codec

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"scipp/internal/tensor"
)

// Workload characterizes the decode work of one encoded sample for the
// execution-cost models (both CPU thread pool and simulated GPU).
type Workload struct {
	BytesIn  int // encoded bytes read
	BytesOut int // decoded bytes written
	Ops      int // arithmetic operation estimate (FP adds, table lookups...)
	// Chunks is the number of independently decodable units the cost
	// models schedule. It may differ from the decoder's NumChunks: deltafp
	// models one unit per line and decodes eight lines per chunk.
	Chunks int
	// DivergentChunks counts chunks whose decode has data-dependent control
	// flow (differential-encoded lines); on the simulated GPU these execute
	// with a warp-divergence penalty (§VI's hierarchical parallelism).
	Divergent int
	// SerialBytes counts bytes that must pass through an inherently serial
	// host-CPU stage before any parallel decode can start (gzip inflate:
	// "the decompression can only be performed on the host CPU", §IX-B).
	// Zero for GPU-decodable formats.
	SerialBytes int
}

// ChunkDecoder decodes one encoded sample. Implementations must allow
// concurrent DecodeChunk calls on distinct chunks.
type ChunkDecoder interface {
	// OutputShape is the shape of the decoded tensor. The result may be a
	// view of the decoder's own storage: it is read-only, and valid until
	// the decoder is recycled (Clone it to keep it longer). Calling it
	// allocates nothing, so the per-sample decode path can ask freely.
	OutputShape() tensor.Shape
	// OutputDType is the element type of the decoded tensor (F16 for the
	// paper's plugins, F32 for the baseline path).
	OutputDType() tensor.DType
	// NumChunks returns the count of independently decodable units.
	NumChunks() int
	// DecodeChunk decodes unit chunk into its region of dst, which must
	// have OutputShape/OutputDType.
	DecodeChunk(chunk int, dst *tensor.Tensor) error
	// Workload reports the decode cost profile.
	Workload() Workload
}

// Format opens encoded blobs of one on-disk format.
type Format interface {
	// Name identifies the format (e.g. "deltafp", "cosmo-lut", "raw-cosmo").
	Name() string
	// Open parses blob and returns a decoder for it.
	Open(blob []byte) (ChunkDecoder, error)
}

// Recycler is implemented by decoders whose Open builds reusable scratch
// (decoded lookup tables, offset indexes). Once every DecodeChunk call has
// returned, the pipeline hands the decoder back through Recycle so the next
// Open of the same format can reuse the buffers instead of reallocating them
// per sample. After Recycle the decoder must not be used again.
type Recycler interface {
	Recycle()
}

// Recycle returns d's reusable buffers to its format's pool, when the
// decoder supports it. Safe on any decoder; non-Recyclers are ignored.
func Recycle(d ChunkDecoder) {
	if r, ok := d.(Recycler); ok {
		r.Recycle()
	}
}

// parallelDecodeMinBytes is the decoded-output size below which
// DecodeParallelInto stays serial: fanning a sample's chunks out to
// goroutines costs more (scheduler churn, a goroutine start per worker) than
// decoding a small sample in place, and cross-sample parallelism already
// comes from the pipeline's decode-stage worker pool.
const parallelDecodeMinBytes = 64 << 10

// Decode fully decodes blob-opened decoder d serially into a new tensor.
// Hot paths that recycle buffers should use DecodeInto.
func Decode(d ChunkDecoder) (*tensor.Tensor, error) {
	dst := tensor.New(d.OutputDType(), d.OutputShape()...)
	if err := DecodeInto(d, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecodeInto decodes d serially into dst, which must have d's output shape
// and dtype (DecodeChunk implementations validate).
//
//scipp:hotpath
func DecodeInto(d ChunkDecoder, dst *tensor.Tensor) error {
	for c := 0; c < d.NumChunks(); c++ {
		if err := d.DecodeChunk(c, dst); err != nil {
			return fmt.Errorf("codec: chunk %d: %w", c, err)
		}
	}
	return nil
}

// DecodeParallel decodes with up to workers concurrent goroutines into a new
// tensor. Hot paths that recycle buffers should use DecodeParallelInto.
func DecodeParallel(d ChunkDecoder, workers int) (*tensor.Tensor, error) {
	dst := tensor.New(d.OutputDType(), d.OutputShape()...)
	if err := DecodeParallelInto(d, dst, workers); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecodeParallelInto decodes into dst with up to workers concurrent
// goroutines, the CPU plugin's execution strategy ("on the CPU we assign
// different samples to different threads" — and within a sample, chunks to
// threads). Small samples decode serially (see parallelDecodeMinBytes);
// larger ones draw chunks from an atomic cursor, with the calling goroutine
// working alongside the spawned ones so workers-1 goroutines suffice.
//
//scipp:hotpath
func DecodeParallelInto(d ChunkDecoder, dst *tensor.Tensor, workers int) error {
	n := d.NumChunks()
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 || d.Workload().BytesOut < parallelDecodeMinBytes {
		return DecodeInto(d, dst)
	}
	f := fanOutPool.Get().(*fanOut)
	f.d, f.dst, f.n = d, dst, n
	f.next.Store(0)
	for w := 1; w < workers; w++ {
		f.wg.Add(1)
		go f.spawned()
	}
	f.work()
	f.wg.Wait()
	err := f.err
	f.d, f.dst, f.err = nil, nil, nil
	fanOutPool.Put(f)
	return err
}

// fanOut is the state one DecodeParallelInto call shares with the
// goroutines it spawns. It is pooled, and spawned is bound once per pooled
// value, so a steady decode loop allocates nothing per sample here: at a
// few thousand samples a second the per-call closures and escaping
// counters were megabytes of garbage between two collections.
type fanOut struct {
	d   ChunkDecoder
	dst *tensor.Tensor
	n   int

	next    atomic.Int64 // chunk cursor
	wg      sync.WaitGroup
	errMu   sync.Mutex
	err     error // first chunk error
	spawned func()
}

var fanOutPool = sync.Pool{New: func() any {
	f := new(fanOut)
	f.spawned = func() {
		defer f.wg.Done()
		f.work()
	}
	return f
}}

// work decodes chunks drawn from the cursor until none are left.
func (f *fanOut) work() {
	for {
		c := int(f.next.Add(1)) - 1
		if c >= f.n {
			return
		}
		if err := f.d.DecodeChunk(c, f.dst); err != nil {
			f.errMu.Lock()
			if f.err == nil {
				f.err = fmt.Errorf("codec: chunk %d: %w", c, err)
			}
			f.errMu.Unlock()
		}
	}
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Format)
)

// Register adds a format to the global registry. It panics on duplicate
// names (a programming error).
func Register(f Format) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[f.Name()]; dup {
		panic(fmt.Sprintf("codec: duplicate format %q", f.Name()))
	}
	registry[f.Name()] = f
}

// Lookup returns the registered format with the given name.
func Lookup(name string) (Format, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("codec: unknown format %q", name)
	}
	return f, nil
}

// Formats returns the registered format names, sorted.
func Formats() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
