//go:build !race

package diagnosis

const raceEnabled = false
