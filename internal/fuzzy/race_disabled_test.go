//go:build !race

package fuzzy

// raceEnabled reports whether the race detector is active; see the race
// variant for why the allocation pins key off it.
const raceEnabled = false
