package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"scipp/internal/codec"
	"scipp/internal/gpusim"
	"scipp/internal/obs"
	"scipp/internal/pipeline"
	"scipp/internal/platform"
	"scipp/internal/tensor"
	"scipp/internal/trace"
)

// The ladder calls each layer a sample crosses directly, one at a time, on
// the workload's own data, so that a layer's cost can be read without the
// layers around it. It runs in the traced process after the timed phase.

// rungBudget is how long each rung measures (less in a smoke test).
func rungBudget(quick bool) time.Duration {
	if quick {
		return 5 * time.Millisecond
	}
	return 150 * time.Millisecond
}

// timeOps runs op in batches until budget has passed and returns the mean
// nanoseconds per op.
func timeOps(budget time.Duration, batch int, op func(i int)) float64 {
	start := time.Now()
	n := 0
	for time.Since(start) < budget {
		for k := 0; k < batch; k++ {
			op(n)
			n++
		}
	}
	return float64(time.Since(start)) / float64(n)
}

// llcBytes reads the size of cpu0's highest-level cache, or 0 if the
// kernel does not say.
func llcBytes() int64 {
	var best int64
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		txt := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(txt, "K"):
			mult, txt = 1<<10, strings.TrimSuffix(txt, "K")
		case strings.HasSuffix(txt, "M"):
			mult, txt = 1<<20, strings.TrimSuffix(txt, "M")
		}
		if v, err := strconv.ParseInt(txt, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// maxCopyArray caps the memcpy calibration arrays. A virtual machine
// reports the host's whole last-level cache (260 MiB on the box this was
// written on), of which two cores see a sliver; four times that would be a
// gigabyte per array.
const maxCopyArray = 256 << 20

// calibrate measures the machine, so that numbers from different machines
// can be normalised instead of re-baselined.
func calibrate(quick bool, m map[string]float64) {
	budget := rungBudget(quick)
	llc := llcBytes()
	size := min(max(4*llc, 64<<20), maxCopyArray)
	if quick {
		size = 4 << 20
	}
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // touch every destination page before timing
	best := time.Duration(1 << 62)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		copy(dst, src)
		best = min(best, time.Since(t0))
	}
	m["calib.memcpy_gbps"] = float64(size) / best.Seconds() / 1e9
	m["calib.memcpy_array_mb"] = float64(size) / 1e6
	m["calib.llc_mb"] = float64(llc) / 1e6
	m["calib.cores"] = float64(runtime.GOMAXPROCS(0))

	ping, pong := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ping {
			pong <- struct{}{}
		}
	}()
	m["calib.chan_roundtrip_ns"] = timeOps(budget, 256, func(int) {
		ping <- struct{}{}
		<-pong
	})
	close(ping)
	<-done
}

// viewOf returns a tensor of the given shape over the front of t's storage:
// one reused destination for samples of differing shapes.
func viewOf(t *tensor.Tensor, shape tensor.Shape) *tensor.Tensor {
	v := &tensor.Tensor{DT: t.DT, Shape: shape}
	n := shape.Elems()
	switch t.DT {
	case tensor.F32:
		v.F32s = t.F32s[:n]
	case tensor.F16:
		v.F16s = t.F16s[:n]
	default:
		v.I16s = t.I16s[:n]
	}
	return v
}

// ladder measures the rungs this workload's samples cross. Rungs the
// workload does not cross (gpusim without a device, the cache without one)
// are left at zero.
func ladder(s *session, quick bool, m map[string]float64) error {
	budget := rungBudget(quick)
	blobs, labels := s.data.mem.Blobs, s.data.mem.Labels
	format := s.data.format
	memcpyGBps := m["calib.memcpy_gbps"]

	// codec: Open, then a serial DecodeInto into one reused tensor.
	dst := tensor.New(s.ref.dtype, s.ref.shape...)
	var openNs, decodeNs, outBytes int64
	var decodeErr error
	n := 0
	for start := time.Now(); time.Since(start) < 2*budget && decodeErr == nil; n++ {
		t0 := time.Now()
		cd, err := format.Open(blobs[n%len(blobs)])
		if err != nil {
			return err
		}
		openNs += int64(time.Since(t0))
		view := viewOf(dst, cd.OutputShape())
		t0 = time.Now()
		decodeErr = codec.DecodeInto(cd, view)
		decodeNs += int64(time.Since(t0))
		outBytes += int64(view.Bytes())
		codec.Recycle(cd)
	}
	if decodeErr != nil {
		return decodeErr
	}
	serialUs := float64(decodeNs) / float64(n) / 1e3
	m["codec.serial_decode_us_per_sample"] = serialUs
	m["codec.open_us_per_sample"] = float64(openNs) / float64(n) / 1e3
	m["codec.serial_decode_gbps"] = float64(outBytes) / float64(decodeNs)
	if memcpyGBps > 0 {
		m["codec.decode_over_memcpy"] = memcpyGBps / m["codec.serial_decode_gbps"]
	}

	// gpusim: the same decodes through Device.ExecuteInto.
	if s.w.gpu {
		dev := gpusim.New(platform.Summit().GPU)
		var execNs int64
		var modeled float64
		n = 0
		for start := time.Now(); time.Since(start) < 2*budget; n++ {
			cd, err := format.Open(blobs[n%len(blobs)])
			if err != nil {
				return err
			}
			t0 := time.Now()
			kt, err := dev.ExecuteInto(cd, dst)
			execNs += int64(time.Since(t0))
			codec.Recycle(cd)
			if err != nil {
				return err
			}
			modeled += kt
		}
		m["gpusim.exec_us_per_sample"] = float64(execNs) / float64(n) / 1e3
		m["gpusim.modeled_kernel_us_per_sample"] = modeled / float64(n) * 1e6
		m["gpusim.exec_over_serial"] = m["gpusim.exec_us_per_sample"] / serialUs
	}

	// cache: a standalone SampleCache holding payloads of the sizes this
	// workload's cache holds — encoded blobs for a loader, serialized
	// decoded tensors for the service.
	if s.w.cache > 0 {
		payloads := blobs
		if s.w.tenants > 0 {
			per := int(s.ref.decodedBytes/int64(len(blobs))) + 32
			payloads = make([][]byte, len(blobs))
			for i := range payloads {
				payloads[i] = make([]byte, per)
				copy(payloads[i], blobs[i])
			}
		}
		var total int64
		for i, p := range payloads {
			total += int64(len(p) + labels[i].Bytes())
		}
		keys := len(payloads)
		mean := float64(total) / float64(keys)
		roomy := pipeline.NewSampleCache(pipeline.CacheConfig{HostMemBytes: 2 * total})
		for i, p := range payloads {
			roomy.Put(i, p, labels[i])
		}
		hit := timeOps(budget, 16, func(i int) { roomy.Get(i % keys) })
		m["pipeline.cache.get_hit_ns"] = hit
		m["pipeline.cache.get_hit_gbps"] = mean / hit
		m["pipeline.cache.get_miss_ns"] = timeOps(budget, 256, func(i int) { roomy.Get(keys + i) })
		m["pipeline.cache.put_ns"] = timeOps(budget, 16, func(i int) { roomy.Put(i%keys, payloads[i%keys], labels[i%keys]) })

		// The same hits from every core at once: what the cache-wide mutex
		// costs. Reported as wall time per hit across all goroutines.
		workers := runtime.GOMAXPROCS(0)
		counts := make([]int, workers)
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g * keys / workers; time.Since(start) < budget; i++ {
					roomy.Get(i % keys)
					counts[g]++
				}
			}(g)
		}
		wg.Wait()
		wall := time.Since(start)
		ops := 0
		for _, c := range counts {
			ops += c
		}
		m["pipeline.cache.get_hit_par_ns"] = float64(wall) / float64(ops)

		// Half the room: cycling through the keys makes every Put evict.
		tight := pipeline.NewSampleCache(pipeline.CacheConfig{HostMemBytes: total / 2})
		m["pipeline.cache.put_evict_ns"] = timeOps(budget, 16, func(i int) { tight.Put(i%keys, payloads[i%keys], labels[i%keys]) })
	}

	// pool: one Get/Put pair of this workload's decoded shape.
	pool := pipeline.NewSlabPool()
	m["pipeline.pool.get_put_ns"] = timeOps(budget, 256, func(int) {
		pool.PutTensor(pool.GetTensor(s.ref.dtype, s.ref.shape))
	})

	// obs: what one pre-resolved span and one counter increment cost.
	reg := obs.NewRegistry()
	stage := obs.NewTracer(reg, trace.NewWallClock()).Stage("benchmark.ladder")
	m["obs.span_ns"] = timeOps(budget, 1024, func(int) { stage.Start().End() })
	counter := reg.Counter("benchmark.ladder.count")
	m["obs.counter_inc_ns"] = timeOps(budget, 4096, func(int) { counter.Inc() })
	return nil
}
