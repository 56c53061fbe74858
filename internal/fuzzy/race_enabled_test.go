//go:build race

package fuzzy

// raceEnabled reports whether the race detector is active. The
// zero-allocation pins skip under -race: the race runtime intentionally
// randomizes sync.Pool reuse (dropping puts to surface races), so pooled
// scratch cannot stay warm and the pins would measure the detector, not
// the code.
const raceEnabled = true
