// Package leakpair is a lint fixture: two scratch buffers leaking at the
// same return are two findings. Expectations live in
// TestTwoLeaksAtOneReturn (// want markers key by line and cannot tell one
// finding from two).
package leakpair

import "repro/internal/tensor"

func use(a, b []float32) {}

// BothLeak misses both releases on the early return.
func BothLeak(n int) bool {
	a := tensor.Scratch(n)
	b := tensor.Scratch(n)
	if n > 64 {
		return false
	}
	use(a, b)
	tensor.Release(a)
	tensor.Release(b)
	return true
}
