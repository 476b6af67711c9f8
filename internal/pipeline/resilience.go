package pipeline

import (
	"errors"
	"fmt"
)

// Resilience is the loader's degraded-mode policy. The zero value preserves
// strict behavior: no retries, and the first undecodable sample fails the
// epoch (as a typed *SampleError).
type Resilience struct {
	// MaxRetries caps per-sample retry attempts for transient errors —
	// Blob/Label/decode failures for which errors.Is(err, fault.Transient)
	// holds. Non-transient errors are never retried.
	MaxRetries int
	// BackoffBase is the delay before the first retry, in seconds; each
	// further retry doubles it. Zero means retry immediately. Delays pass
	// through the iterator's clock when it implements trace.Sleeper, so
	// virtual-clock runs back off in virtual time.
	BackoffBase float64
	// BackoffCap bounds the exponential delay (default: uncapped).
	BackoffCap float64
	// MaxBadSamples is the per-epoch quota of undecodable samples to skip
	// after retries are exhausted. Zero disables skipping. When the quota
	// is exceeded the epoch fails with an *EpochError naming every bad
	// sample.
	MaxBadSamples int
}

// maxLoggedErrors bounds the per-sample errors an iterator retains in
// Stats. Indices of bad samples are always all retained.
const maxLoggedErrors = 8

// backoff returns the delay before retry attempt (0-based).
func (r Resilience) backoff(attempt int) float64 {
	d := r.BackoffBase
	for a := 0; a < attempt; a++ {
		d *= 2
		if r.BackoffCap > 0 && d >= r.BackoffCap {
			return r.BackoffCap
		}
	}
	return d
}

// SampleError reports the failure of one sample, carrying its dataset index.
// Every error surfaced by Iterator.Next for a sample (with or without a
// resilience policy) unwraps to one.
type SampleError struct {
	// Index is the dataset index of the failing sample.
	Index int
	// Err is the underlying Blob/Label/decode failure.
	Err error
}

// Error implements error.
func (e *SampleError) Error() string {
	return fmt.Sprintf("pipeline: sample %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *SampleError) Unwrap() error { return e.Err }

// EpochError reports an epoch that lost more samples than its
// Resilience.MaxBadSamples quota allows.
type EpochError struct {
	// Quota is the MaxBadSamples limit that was exceeded.
	Quota int
	// Indices are the dataset indices of every bad sample, in consumption
	// order.
	Indices []int
	// Errors holds the first 8 sample errors.
	Errors []*SampleError
}

// Error implements error, naming the offending samples.
func (e *EpochError) Error() string {
	first := ""
	if len(e.Errors) > 0 {
		first = "; first: " + e.Errors[0].Error()
	}
	return fmt.Sprintf("pipeline: epoch lost %d samples %v, exceeding MaxBadSamples=%d%s",
		len(e.Indices), e.Indices, e.Quota, first)
}

// Unwrap exposes the first sample error to errors.Is/As.
func (e *EpochError) Unwrap() error {
	if len(e.Errors) == 0 {
		return nil
	}
	return e.Errors[0]
}

// Stats is an iterator's per-epoch error accounting, for asserting on
// sample-loss budgets.
type Stats struct {
	// Decoded counts samples decoded and delivered into batches.
	Decoded int
	// Retried counts retry attempts performed on transient errors.
	Retried int
	// Skipped counts undecodable samples dropped under MaxBadSamples.
	Skipped int
	// Panics counts stage-worker panics recovered by the supervisor; each
	// consumed one unit of its stage's restart budget.
	Panics int
	// Stalls counts wedged stage workers the stall watchdog wrote off,
	// re-admitting every sample of the run each one held; each consumed
	// one unit of its stage's restart budget.
	Stalls int
	// BadSamples are the dataset indices of skipped (and, on epoch
	// failure, quota-exceeding) samples, in consumption order.
	BadSamples []int
	// Errors holds the first 8 sample errors.
	Errors []*SampleError
}

// Stats returns a snapshot of the iterator's error accounting. It is safe
// for concurrent use with Next.
func (it *Iterator) Stats() Stats {
	it.statsMu.Lock()
	defer it.statsMu.Unlock()
	s := it.stats
	s.BadSamples = append([]int(nil), it.stats.BadSamples...)
	s.Errors = append([]*SampleError(nil), it.stats.Errors...)
	return s
}

func (it *Iterator) noteDecoded() {
	it.statsMu.Lock()
	it.stats.Decoded++
	it.statsMu.Unlock()
	it.ob.decoded.Inc()
}

func (it *Iterator) noteRetried() {
	it.statsMu.Lock()
	it.stats.Retried++
	it.statsMu.Unlock()
	it.ob.retried.Inc()
}

func (it *Iterator) notePanicked() {
	it.statsMu.Lock()
	it.stats.Panics++
	it.statsMu.Unlock()
	it.ob.panics.Inc()
}

func (it *Iterator) noteStalled() {
	it.statsMu.Lock()
	it.stats.Stalls++
	it.statsMu.Unlock()
	it.ob.stalls.Inc()
}

// recordBad logs a failed sample and reports whether the epoch may continue:
// true means the sample was skipped within the MaxBadSamples quota; false
// means the failure is epoch-fatal (no quota, or quota exceeded).
func (it *Iterator) recordBad(se *SampleError, quota int) bool {
	it.ob.bad.Inc()
	it.statsMu.Lock()
	defer it.statsMu.Unlock()
	it.stats.BadSamples = append(it.stats.BadSamples, se.Index)
	if len(it.stats.Errors) < maxLoggedErrors {
		it.stats.Errors = append(it.stats.Errors, se)
	}
	if quota > 0 && len(it.stats.BadSamples) <= quota {
		it.stats.Skipped++
		it.ob.skipped.Inc()
		return true
	}
	return false
}

// asSampleError coerces err into a *SampleError for sample i (decode paths
// wrap their errors already; datasets may surface raw errors).
func asSampleError(err error, i int) *SampleError {
	var se *SampleError
	if errors.As(err, &se) {
		return se
	}
	return &SampleError{Index: i, Err: err}
}
