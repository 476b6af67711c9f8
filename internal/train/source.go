package train

import (
	"scipp/internal/dataserve"
	"scipp/internal/pipeline"
)

// BatchIter is one epoch's batch stream: the slice of pipeline.Iterator's
// contract the training loop consumes. Next returns (nil, nil) at a clean
// end of epoch; Close aborts early without leaking.
type BatchIter interface {
	Next() (*pipeline.Batch, error)
	Close()
}

// BatchSource supplies epoch iterators — either a private pipeline.Loader
// (the default) or a tenant of a shared dataserve.Service, so several
// elastic runs can multiplex one decoded-sample cache. EpochBatches may
// return nil when the source has been torn down (e.g. a detached tenant).
type BatchSource interface {
	EpochBatches(epoch int) BatchIter
}

// loaderSource adapts a private pipeline.Loader to BatchSource.
type loaderSource struct{ l *pipeline.Loader }

func (s loaderSource) EpochBatches(epoch int) BatchIter { return s.l.Epoch(epoch) }

// tenantSource adapts a dataserve tenant to BatchSource.
type tenantSource struct{ t *dataserve.Tenant }

func (s tenantSource) EpochBatches(epoch int) BatchIter {
	it := s.t.Epoch(epoch)
	if it == nil {
		return nil // detached: the run fails loudly instead of hanging
	}
	return it
}

// NewTenantSource wires a dataserve tenant into the training engine: set
// ElasticConfig.Source to the result and the run draws its batches from
// the shared service instead of building a private loader. The tenant's
// schedule config (Batch, Shuffle, Seed, DropLast) must match what the
// run would have used privately for the batches to be bit-identical.
//
//lint:ignore deadcode TestElasticTenantSourceBitIdentical checks a tenant's schedule against the loader's through it; ROADMAP items 2 and 8 consume it
func NewTenantSource(t *dataserve.Tenant) BatchSource { return tenantSource{t} }
