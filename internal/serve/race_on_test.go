//go:build race

package serve

// raceEnabled: under the race detector sync.Pool drops a share of what it
// is given, so allocation counts are not the production ones.
const raceEnabled = true
