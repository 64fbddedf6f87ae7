//go:build race

package tensor

// raceEnabled: the exhaustive FP16 sweep is an order of magnitude slower
// under the race detector, so it runs its reduced form there.
const raceEnabled = true
