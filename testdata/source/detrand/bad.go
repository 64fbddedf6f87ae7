// Package detrand is a source-rule fixture: math/rand outside the RNG
// wrapper.
package detrand

import (
	"math/rand" // want detrand

	"repro/internal/tensor"
)

// Roll uses the banned package-level global-state functions.
func Roll() int {
	return rand.Intn(6) // want detrand
}

// Seeded is the sanctioned way to draw random values.
func Seeded() float64 {
	return tensor.NewRNG(1).Float64()
}
