//go:build !race

package trace

// raceEnabled reports whether the race detector is active; the
// allocation pins are skipped under it.
const raceEnabled = false
