//go:build race

package nn

// raceEnabled reports whether the race detector is on, which moves
// allocation figures.
const raceEnabled = true
