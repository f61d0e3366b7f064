//go:build race

package fleet

// raceEnabled trims single-goroutine tests whose size only adds
// coverage, not interleavings, under the race detector.
const raceEnabled = true
