//go:build race

package main

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a random share of what it is given, so the codecs' own scratch
// pools make allocation counts jitter.
const raceEnabled = true
