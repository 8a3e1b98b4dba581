//go:build race

package serve

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops items at random, so allocation counts are not exact.
const raceEnabled = true
