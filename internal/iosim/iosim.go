// Package iosim models the storage side of Fig 1: samples originate on a
// shared parallel filesystem, may be *staged* onto node-local NVMe, and —
// capacity permitting — end up cached in host CPU memory after the first
// epoch. Which level a training epoch reads from determines the bandwidth
// of step a.2/b.4 and hence the IO stage of the pipeline.
//
// The residency model is the paper's own: "if the samples assigned to a
// node fit in the host CPU memory, a sample traverses step 1 & 2 once,
// while step 3 & 4 are repeated... If the dataset per node fits in the node
// NVMe, but not in memory, the steps 2 & 3 & 4 are repeated".
package iosim

import (
	"fmt"

	"scipp/internal/platform"
)

// Level is a storage/memory level a sample can be read from.
type Level int

// Storage hierarchy levels, nearest-to-GPU last.
const (
	SharedFS Level = iota
	NVMe
	HostMem
)

// String names the level.
func (l Level) String() string {
	switch l {
	case SharedFS:
		return "shared-fs"
	case NVMe:
		return "nvme"
	case HostMem:
		return "host-mem"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Dataset describes the samples assigned to one node.
type Dataset struct {
	// Samples assigned to this node.
	Samples int
	// SampleBytes is the on-disk (encoded) size of one sample.
	SampleBytes int
	// Staged selects node-local NVMe staging; unstaged datasets stream from
	// the shared filesystem every epoch (§IX-A explores both).
	Staged bool
}

// Bytes returns the dataset's total footprint.
func (d Dataset) Bytes() int64 { return int64(d.Samples) * int64(d.SampleBytes) }

// Node simulates one compute node's storage hierarchy.
type Node struct {
	P platform.Platform
}

// ResidentLevel returns the level epoch reads are served from. Epoch 0 is
// the cold epoch (first traversal); later epochs benefit from host-memory
// caching when the dataset fits the budget.
func (n Node) ResidentLevel(ds Dataset, epoch int) Level {
	cold := sourceLevel(ds)
	if epoch == 0 {
		return cold
	}
	if ds.Bytes() <= n.P.MemBudgetBytes() {
		return HostMem
	}
	return cold
}

func sourceLevel(ds Dataset) Level {
	if ds.Staged {
		return NVMe
	}
	return SharedFS
}

// FitsNVMe reports whether a staged dataset fits the node NVMe.
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func (n Node) FitsNVMe(ds Dataset) bool {
	return ds.Bytes() <= int64(n.P.Storage.NVMeTB*1e12)
}

// BandwidthGBs returns the per-node read bandwidth of a level in GB/s.
func (n Node) BandwidthGBs(l Level) float64 {
	switch l {
	case SharedFS:
		return n.P.Storage.SharedGB
	case NVMe:
		// Table I reports GiB/s; convert to GB/s.
		return n.P.Storage.NVMeGBs * (1 << 30) / 1e9
	case HostMem:
		// Host memory streaming: effectively never the bottleneck; modeled
		// as a generous constant rather than per-platform STREAM numbers.
		return 100
	}
	return 0
}

// ReadTime returns the time to read one sample from level l when `streams`
// consumers (the per-GPU loader processes) share the node's bandwidth.
func (n Node) ReadTime(ds Dataset, l Level, streams int) float64 {
	if streams < 1 {
		streams = 1
	}
	bw := n.BandwidthGBs(l) * 1e9 / float64(streams)
	return float64(ds.SampleBytes) / bw
}

// StageTime returns the one-time cost of staging the dataset from the
// shared FS to NVMe (bounded by the slower of FS read and NVMe write,
// approximated by FS bandwidth).
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func (n Node) StageTime(ds Dataset) float64 {
	if !ds.Staged {
		return 0
	}
	return float64(ds.Bytes()) / (n.P.Storage.SharedGB * 1e9)
}

// EpochReadTime returns the total IO time of one epoch's sample reads at
// the given epoch index: with consumers perfectly sharing the level's
// bandwidth, it equals the dataset size over the full node bandwidth.
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func (n Node) EpochReadTime(ds Dataset, epoch int) float64 {
	l := n.ResidentLevel(ds, epoch)
	return float64(ds.Samples) * n.ReadTime(ds, l, 1)
}
