//go:build !race

package tensorops

const raceEnabled = false
