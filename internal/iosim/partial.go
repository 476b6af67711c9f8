package iosim

// Partial caching: the binary residency model of ResidentLevel matches the
// paper's narrative ("if the samples assigned to a node fit in the host CPU
// memory..."), but real nodes serve part of an oversized dataset from the
// OS page cache. This alternative model serves a HitFraction of reads from
// memory and the rest from the dataset's storage level, softening the
// cliff between "fits" and "does not fit". EXPERIMENTS.md uses it to
// discuss the caching-amplification divergence on the DeepCAM large set.

// HitFraction returns the steady-state fraction of per-epoch reads served
// from host memory for a uniformly shuffled traversal: min(1, budget/size).
// Epoch 0 (the cold traversal) always misses.
func (n Node) HitFraction(ds Dataset, epoch int) float64 {
	if epoch == 0 {
		return 0
	}
	size := ds.Bytes()
	if size <= 0 {
		return 1
	}
	h := float64(n.P.MemBudgetBytes()) / float64(size)
	if h > 1 {
		h = 1
	}
	return h
}

// PartialReadTime returns the expected per-sample read time under the
// partial-caching model: hits stream from memory, misses from the staged
// NVMe or the shared filesystem.
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func (n Node) PartialReadTime(ds Dataset, epoch, streams int) float64 {
	h := n.HitFraction(ds, epoch)
	missLevel := sourceLevel(ds)
	tMiss := n.ReadTime(ds, missLevel, streams)
	tHit := n.ReadTime(ds, HostMem, streams)
	return h*tHit + (1-h)*tMiss
}
