//go:build race

package sim

// raceEnabled trims the heavier property tests under the race detector.
const raceEnabled = true
