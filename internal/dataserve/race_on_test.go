//go:build race

package dataserve

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a random quarter of the items put back, so a codec's decoder pool
// allocates now and then and allocation counts are not exact.
const raceEnabled = true
