//go:build race

package models

// raceEnabled: under the race detector sync.Pool drops a share of what it
// is given, so allocation volumes are not the production ones.
const raceEnabled = true
