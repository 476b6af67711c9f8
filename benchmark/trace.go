package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scipp/internal/codec"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

// boundary names a place where the harness can put a span around a call
// into the program. Spans inside dataserve (dispatcher scan, blob encode,
// materialize) and per-stage queue waits cannot be reached from outside.
type boundary int

const (
	bEpoch      boundary = iota // one consumer's whole epoch
	bEpochStart                 // Loader.Epoch / Tenant.Epoch returning
	bNext                       // Next / NextPadded blocking
	bRelease                    // Batch.Release / PaddedBatch.Release
	bBlob                       // Dataset.Blob
	bLabel                      // Dataset.Label
	bOpen                       // Format.Open
	bDecode                     // all DecodeChunk calls of one sample
	numBoundaries
)

var boundaryNames = [numBoundaries]string{
	"epoch", "epoch.start", "next", "release", "dataset.blob", "dataset.label", "codec.open", "codec.decode",
}

// maxSpans bounds the spans kept for the trace file; counts and busy time
// keep accumulating past it. weather_ragged alone produces about a million
// spans a second.
const maxSpans = 1 << 16

// span is one recorded interval. Sample is the dataset index shared by the
// spans of one sample (-1 for batch- and epoch-level spans); Parent is the
// span that caused this one (0 for none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Sample int    `json:"sample"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans from the harness's own wrappers. A nil *tracer is
// the untraced run: callers skip every wrapper and every record call.
type tracer struct {
	base   time.Time
	nextID atomic.Int64
	count  [numBoundaries]atomic.Int64
	busy   [numBoundaries]atomic.Int64 // nanoseconds

	// Codec and read counters that are not span durations.
	chunks, bytesIn, bytesOut, codecErrors, readBytes atomic.Int64

	// epoch is the live epoch span of a single-consumer run, the parent of
	// worker-side spans. With several tenants a worker's decode cannot be
	// attributed to one of them from outside, so it stays 0.
	epoch atomic.Int64

	mu      sync.Mutex
	spans   []span
	full    atomic.Bool // spans reached maxSpans: later ones skip the lock
	dropped atomic.Int64

	// Blob-to-sample resolution for Format.Open, which is not told the
	// index: by the blob's address, falling back once per address to a
	// content key (a cache hands out its own copies of the dataset's blobs).
	blobMu  sync.RWMutex
	byAddr  map[*byte]int
	byBytes map[blobKey]int
}

type blobKey struct {
	n          int
	head, tail [16]byte
}

func keyOf(blob []byte) blobKey {
	k := blobKey{n: len(blob)}
	copy(k.head[:], blob)
	if len(blob) > len(k.tail) {
		copy(k.tail[:], blob[len(blob)-len(k.tail):])
	}
	return k
}

// newTracer returns a tracer whose clock starts at base, the session's.
func newTracer(ds *pipeline.MemDataset, base time.Time) *tracer {
	tr := &tracer{
		base:    base,
		spans:   make([]span, 0, maxSpans),
		byAddr:  make(map[*byte]int, len(ds.Blobs)),
		byBytes: make(map[blobKey]int, len(ds.Blobs)),
	}
	for i, b := range ds.Blobs {
		if len(b) > 0 {
			tr.byAddr[&b[0]] = i
			tr.byBytes[keyOf(b)] = i
		}
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

func (tr *tracer) sampleOf(blob []byte) int {
	if len(blob) == 0 {
		return -1
	}
	tr.blobMu.RLock()
	i, ok := tr.byAddr[&blob[0]]
	tr.blobMu.RUnlock()
	if ok {
		return i
	}
	i, ok = tr.byBytes[keyOf(blob)]
	if !ok {
		i = -1
	}
	tr.blobMu.Lock()
	tr.byAddr[&blob[0]] = i
	tr.blobMu.Unlock()
	return i
}

// begin reserves a span ID, for a span whose children are recorded before
// it ends.
func (tr *tracer) begin() int64 { return tr.nextID.Add(1) }

// record adds a finished span whose busy time is its duration.
func (tr *tracer) record(b boundary, parent int64, sample int, start, end int64) int64 {
	id := tr.begin()
	tr.finish(id, b, parent, sample, start, end, end-start)
	return id
}

// finish adds span id and charges busy nanoseconds to its boundary.
func (tr *tracer) finish(id int64, b boundary, parent int64, sample int, start, end, busy int64) {
	tr.count[b].Add(1)
	tr.busy[b].Add(busy)
	if tr.full.Load() {
		tr.dropped.Add(1)
		return
	}
	tr.mu.Lock()
	if len(tr.spans) < maxSpans {
		tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: boundaryNames[b], Sample: sample, Start: start, End: end})
	} else {
		tr.full.Store(true)
		tr.dropped.Add(1)
	}
	tr.mu.Unlock()
}

// tracedDataset forwards to a Dataset with a span around every read.
type tracedDataset struct {
	inner pipeline.Dataset
	tr    *tracer
}

func (d *tracedDataset) Len() int { return d.inner.Len() }

func (d *tracedDataset) Blob(i int) ([]byte, error) {
	t0 := d.tr.now()
	blob, err := d.inner.Blob(i)
	d.tr.record(bBlob, d.tr.epoch.Load(), i, t0, d.tr.now())
	d.tr.readBytes.Add(int64(len(blob)))
	return blob, err
}

func (d *tracedDataset) Label(i int) (*tensor.Tensor, error) {
	t0 := d.tr.now()
	label, err := d.inner.Label(i)
	d.tr.record(bLabel, d.tr.epoch.Load(), i, t0, d.tr.now())
	return label, err
}

// tracedFormat forwards to a codec.Format with a span around every Open
// and, through tracedDecoder, around each sample's chunk decodes. Unlike
// obs.InstrumentFormat it keeps the decoder's Recycler reachable, so a
// traced run recycles codec scratch exactly as an untraced one does, and
// it reuses its own decoder wrappers so that it adds no allocation per
// sample either. (A plain freelist, not a sync.Pool: under the race
// detector a sync.Pool drops a share of what it is given, and the test that
// compares traced with untraced allocations runs there too.)
type tracedFormat struct {
	inner codec.Format
	tr    *tracer

	mu   sync.Mutex
	free []*tracedDecoder
}

// tracedShapedFormat is tracedFormat over a format that also declares a
// shape bound and probes shapes from headers, forwarding both.
type tracedShapedFormat struct {
	*tracedFormat
	bounded codec.ShapeBounded
	prober  codec.ShapeProber
}

func (f tracedShapedFormat) MaxShape() (tensor.DType, tensor.Shape) { return f.bounded.MaxShape() }

func (f tracedShapedFormat) ProbeShape(blob []byte) (tensor.DType, tensor.Shape, error) {
	return f.prober.ProbeShape(blob)
}

// wrapFormat returns a forwarding wrapper with the same optional
// capabilities as f. The workloads' formats have either both shape
// capabilities (raw-series) or neither (deltafp, cosmo-lut).
func wrapFormat(f codec.Format, tr *tracer) (codec.Format, error) {
	base := &tracedFormat{inner: f, tr: tr}
	bounded, isBounded := f.(codec.ShapeBounded)
	prober, isProber := f.(codec.ShapeProber)
	switch {
	case isBounded && isProber:
		return tracedShapedFormat{tracedFormat: base, bounded: bounded, prober: prober}, nil
	case !isBounded && !isProber:
		return base, nil
	}
	return nil, fmt.Errorf("benchmark: format %q has one shape capability without the other; the tracing wrapper would hide it", f.Name())
}

func (f *tracedFormat) Name() string { return f.inner.Name() }

func (f *tracedFormat) Open(blob []byte) (codec.ChunkDecoder, error) {
	tr := f.tr
	t0 := tr.now()
	cd, err := f.inner.Open(blob)
	t1 := tr.now()
	sample := tr.sampleOf(blob)
	id := tr.record(bOpen, tr.epoch.Load(), sample, t0, t1)
	tr.bytesIn.Add(int64(len(blob)))
	if err != nil {
		tr.codecErrors.Add(1)
		return nil, err
	}
	tr.bytesOut.Add(int64(cd.Workload().BytesOut))
	d := f.getDecoder()
	d.ChunkDecoder, d.f, d.open, d.sample = cd, f, id, sample
	d.first.Store(0)
	d.last.Store(0)
	d.busy.Store(0)
	d.timed.Store(0)
	d.parked.Store(0)
	return d, nil
}

// tracedDecoder times DecodeChunk calls, which may run concurrently, and
// forwards everything else. Its one span per sample runs from the first
// chunk's start to the last chunk's end and is emitted by Recycle, which
// the loader and the service both call once a decode has returned.
type tracedDecoder struct {
	codec.ChunkDecoder
	f      *tracedFormat
	open   int64 // the Open span, this decode's parent
	sample int

	first, last atomic.Int64
	// busy sums the chunks that ran undisturbed; parked counts the rest.
	busy, timed, parked atomic.Int64
}

// parkedNs is the chunk duration beyond which the goroutine must have been
// descheduled in mid-chunk: the workloads' chunks take 1 to 100 microseconds,
// and a decode goroutine that loses its processor (there are more runnable
// decoders than cores, and Go preempts every 10 ms) waits milliseconds for
// the next turn. Such a chunk is charged the mean of the undisturbed ones,
// so that busy time stays an estimate of CPU time, not of queueing.
const parkedNs = int64(time.Millisecond)

func (d *tracedDecoder) DecodeChunk(chunk int, dst *tensor.Tensor) error {
	tr := d.f.tr
	t0 := tr.now()
	err := d.ChunkDecoder.DecodeChunk(chunk, dst)
	t1 := tr.now()
	tr.chunks.Add(1)
	if t1-t0 > parkedNs {
		d.parked.Add(1)
	} else {
		d.busy.Add(t1 - t0)
		d.timed.Add(1)
	}
	d.first.CompareAndSwap(0, t0)
	for {
		old := d.last.Load()
		if t1 <= old || d.last.CompareAndSwap(old, t1) {
			break
		}
	}
	if err != nil {
		tr.codecErrors.Add(1)
	}
	return err
}

// Recycle implements codec.Recycler by forwarding, then shelves the wrapper.
func (d *tracedDecoder) Recycle() {
	codec.Recycle(d.ChunkDecoder)
	if first := d.first.Load(); first != 0 {
		busy := d.busy.Load()
		if timed := d.timed.Load(); timed > 0 {
			busy += busy / timed * d.parked.Load()
		}
		d.f.tr.finish(d.f.tr.begin(), bDecode, d.open, d.sample, first, d.last.Load(), busy)
	}
	f := d.f
	d.ChunkDecoder, d.f = nil, nil
	f.mu.Lock()
	f.free = append(f.free, d)
	f.mu.Unlock()
}

func (f *tracedFormat) getDecoder() *tracedDecoder {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.free); n > 0 {
		d := f.free[n-1]
		f.free = f.free[:n-1]
		return d
	}
	return new(tracedDecoder)
}

// layerTime is one boundary's totals over the kept spans.
type layerTime struct {
	Name    string `json:"name"`
	Spans   int    `json:"spans"`
	TotalNs int64  `json:"total_ns"`
	// SelfNs is total time minus the part covered by child spans.
	SelfNs int64 `json:"self_ns"`
}

// selfTimes folds spans into per-name totals. A span's self time is its
// duration minus the union of its children's intervals inside it.
func selfTimes(spans []span) []layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt.Spans++
		lt.TotalNs += s.End - s.Start
		lt.SelfNs += s.End - s.Start - covered
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Kept     int         `json:"spans_kept"`
	Dropped  int64       `json:"spans_dropped"`
	Layers   []layerTime `json:"layers"`
	Spans    []span      `json:"spans"`
}

func (tr *tracer) write(dir, workload string, seed uint64) (string, error) {
	tr.mu.Lock()
	tf := traceFile{Workload: workload, Seed: seed, Kept: len(tr.spans), Dropped: tr.dropped.Load(), Layers: selfTimes(tr.spans), Spans: tr.spans}
	tr.mu.Unlock()
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
