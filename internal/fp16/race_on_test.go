//go:build race

package fp16

// raceEnabled reports that the race detector is on. It slows the
// exhaustive conversion sweep by an order of magnitude, so that test skips.
const raceEnabled = true
