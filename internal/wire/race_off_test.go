//go:build !race

package wire

// raceEnabled reports whether the race detector is compiled in; the
// allocation and timing gates skip under it.
const raceEnabled = false
