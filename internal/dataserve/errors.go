package dataserve

import (
	"errors"
	"fmt"
)

// errDetached and errClosed are the sentinel interruptions a request can
// see when its iterator closes or the whole service shuts down mid-fetch.
// They surface only through iterators that were torn down, never through a
// healthy epoch.
var (
	errDetached = errors.New("dataserve: tenant detached")
	errClosed   = errors.New("dataserve: service closed")
)

// SampleError is a sample whose decode failed terminally — the flight
// owner exhausted the dataset's transient-retry budget, or the failure was
// permanent. Every tenant waiting on that flight receives the same
// underlying error, each wrapped with its own tenant name.
type SampleError struct {
	Dataset string
	Tenant  string
	Index   int
	Err     error
}

// Error implements error.
func (e *SampleError) Error() string {
	return fmt.Sprintf("dataserve: tenant %s: sample %d of %s: %v", e.Tenant, e.Index, e.Dataset, e.Err)
}

// Unwrap exposes the decode failure, so errors.Is sees fault markers.
func (e *SampleError) Unwrap() error { return e.Err }

// BreakerError is a request fast-failed by the tenant's open circuit
// breaker: the tenant exhausted its error budget and is cut off from the
// shared decode path until a half-open probe succeeds. It is delivered in
// schedule order like any outcome, so Next surfaces it as the epoch's
// terminal error without stalling the reorder buffer.
type BreakerError struct {
	Tenant string
	Index  int
	// Retry is the open interval in service-clock seconds: how long until
	// the breaker admits its next half-open probe.
	Retry float64
}

// Error implements error.
func (e *BreakerError) Error() string {
	return fmt.Sprintf("dataserve: tenant %s: sample %d rejected by open breaker (probe in %gs)", e.Tenant, e.Index, e.Retry)
}

// PoisonError is a request refused by the service-wide poison blacklist:
// the sample already failed decode for K distinct tenants, so it is
// fast-failed without touching the cache or a decode worker. With
// TenantConfig.MaxBadSamples set, iterators skip poisoned samples instead
// of aborting the epoch.
type PoisonError struct {
	Dataset string
	Tenant  string
	Index   int
	// Tenants is how many distinct tenants' decodes failed before the
	// sample was blacklisted.
	Tenants int
}

// Error implements error.
func (e *PoisonError) Error() string {
	return fmt.Sprintf("dataserve: tenant %s: sample %d of %s poisoned (failed %d tenants)", e.Tenant, e.Index, e.Dataset, e.Tenants)
}
