//go:build !race

package olap

const raceEnabled = false
