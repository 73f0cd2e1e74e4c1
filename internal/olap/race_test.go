//go:build race

package olap

// raceEnabled reports a -race build: sync.Pool then drops pooled items
// at random, so allocation counts are not reproducible.
const raceEnabled = true
