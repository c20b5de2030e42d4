//go:build race

package diagnosis

// raceEnabled reports a -race build, whose sync.Pool drops a share of Puts.
const raceEnabled = true
