package pipeline

import (
	"fmt"

	"scipp/internal/xrand"
)

// Source supplies the sample schedule of each epoch — the first node of the
// staged DAG. It replaces the loader's old inline schedule so ordering
// policies (sequential, shuffled, sharded-by-rank) compose with the rest of
// the pipeline instead of being hard-wired into it.
type Source interface {
	// Len returns the number of samples one epoch of this source yields.
	Len() int
	// Order returns the epoch's dataset indices, in consumption order. The
	// result must be stable for a given epoch: schedules are re-derived on
	// resume and must replay bit-identically.
	Order(epoch int) []int
}

// SequentialSource yields 0..N-1 in order every epoch.
type SequentialSource struct {
	// N is the dataset length.
	N int
}

// Len implements Source.
func (s *SequentialSource) Len() int { return s.N }

// Order implements Source.
func (s *SequentialSource) Order(epoch int) []int { return s.OrderInto(nil, epoch) }

// OrderInto is Order written into buf's memory when it has room.
func (s *SequentialSource) OrderInto(buf []int, _ int) []int { return identity(buf, s.N) }

// ShuffledSource yields a per-epoch deterministic permutation of 0..N-1,
// derived from (Seed, epoch) exactly as the pre-DAG loader did, so existing
// seeded runs reproduce bit-identically.
type ShuffledSource struct {
	// N is the dataset length.
	N int
	// Seed drives the per-epoch derived shuffle.
	Seed uint64
}

// Len implements Source.
func (s *ShuffledSource) Len() int { return s.N }

// Order implements Source.
func (s *ShuffledSource) Order(epoch int) []int { return s.OrderInto(nil, epoch) }

// OrderInto is Order written into buf's memory when it has room.
func (s *ShuffledSource) OrderInto(buf []int, epoch int) []int {
	return shuffled(identity(buf, s.N), s.Seed, epoch)
}

// ShardedSource yields rank's strided share of the (optionally shuffled)
// epoch permutation: indices at positions Rank, Rank+World, ... — the
// DistributedSampler contract. All ranks derive the same permutation from
// (Seed, epoch), so the shards partition each epoch exactly.
type ShardedSource struct {
	// N is the dataset length.
	N int
	// Seed drives the shared per-epoch shuffle (ignored unless Shuffle).
	Seed uint64
	// Shuffle reshuffles the global order each epoch before sharding.
	Shuffle bool
	// Rank is this consumer's shard in [0, World).
	Rank int
	// World is the total shard count.
	World int
}

// Validate reports an impossible shard geometry.
func (s *ShardedSource) Validate() error {
	if s.World <= 0 || s.Rank < 0 || s.Rank >= s.World {
		return fmt.Errorf("pipeline: sharded source rank %d of world %d", s.Rank, s.World)
	}
	return nil
}

// Len implements Source: the size of this rank's shard.
func (s *ShardedSource) Len() int {
	if s.World <= 0 {
		return 0
	}
	n := s.N / s.World
	if s.Rank < s.N%s.World {
		n++
	}
	return n
}

// Order implements Source.
func (s *ShardedSource) Order(epoch int) []int {
	if s.World <= 0 {
		return nil
	}
	order := identity(nil, s.N)
	if s.Shuffle {
		order = shuffled(order, s.Seed, epoch)
	}
	shard := make([]int, 0, s.Len())
	for i := s.Rank; i < len(order); i += s.World {
		shard = append(shard, order[i])
	}
	return shard
}

// identity returns 0..n-1, in buf's memory when it has room.
func identity(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	order := buf[:n]
	for i := range order {
		order[i] = i
	}
	return order
}

// shuffled permutes order in place with the per-epoch derived seed the
// loader has always used; changing this constant breaks resume replay.
func shuffled(order []int, seed uint64, epoch int) []int {
	rng := xrand.New(seed ^ (uint64(epoch)+1)*0x9E3779B97F4A7C15)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}
