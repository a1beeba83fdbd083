//go:build !race

package server

// raceEnabled reports whether the race detector is active; the
// allocation pins are skipped under it.
const raceEnabled = false
