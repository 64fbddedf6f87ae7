//go:build !linux

package parallel

// osYield has no portable spelling; the Go scheduler's own yield has to do.
func osYield() {}
