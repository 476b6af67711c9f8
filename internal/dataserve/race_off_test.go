//go:build !race

package dataserve

const raceEnabled = false
