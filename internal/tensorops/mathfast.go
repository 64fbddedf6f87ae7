package tensorops

import "math"

// tanh32 is the activation kernel behind Tanh and the fused epilogues: a
// float32-targeted tanh evaluated in float64. math.Tanh computes a full
// float64-precision result (two assembly exp evaluations plus branchy
// range handling) only for the caller to throw 29 bits away in the
// float32 conversion; profiling the tuning experiments put ~40% of
// end-to-end time inside it. This version computes e^y-1 (y = 2x) with
// one degree-7 polynomial after standard ln2 range reduction and forms
// tanh(x) = (e^2x-1)/(e^2x+1). The polynomial's relative error is
// ~2e-8 — under a fifth of a float32 ulp — so results match
// float32(math.Tanh(x)) to within one ulp everywhere (the differential
// test sweeps the full active range and pins this). Every execution path
// (serial, sharded, fused, unfused, cached) shares this one function, so
// the engine's bit-identity invariants are unaffected.
//
// It has a vector twin: TANH4 in rowops_avx_amd64.s is this function
// transcribed operation for operation onto four float64 lanes (behind
// tanhSlice and the epilogue's tanh step), and tanh_vector_test.go holds it
// to this one on every float32 bit pattern. A change to the arithmetic
// here — a constant, the order of two operations, a branch — must be made
// there as well, or that sweep fails.
//
// Exactness at the edges: tanh32(0) == 0 (k=0 reduction is exact at 0),
// tanh32(-x) == -tanh32(x) (computed on |x|), NaN propagates, and
// |2x| >= 18.03 saturates to ±1 — the value float32 rounds
// 1-2e^-18.03 to anyway.
func tanh32(x float32) float32 {
	y := 2 * float64(x)
	neg := false
	if y < 0 {
		y = -y
		neg = true
	}
	if !(y < 18.03) { // saturated, +Inf, or NaN
		if math.IsNaN(y) {
			return x
		}
		if neg {
			return -1
		}
		return 1
	}

	// Range-reduce y = k·ln2 + r with |r| <= ln2/2, splitting ln2 into
	// high/low parts so r stays accurate. y is non-negative here, so the
	// truncating int conversion of y·(1/ln2)+0.5 is exactly
	// round-to-nearest (math.Round costs a libcall-sized detour on this
	// hot path).
	const (
		invLn2 = 1.4426950408889634
		ln2Hi  = 6.93147180369123816490e-01
		ln2Lo  = 1.90821492927058770002e-10
	)
	// Every product is wrapped in float64(...) so that no target fuses it
	// with the sum that follows (see the package comment).
	k := int64(float64(y*invLn2) + 0.5)
	kf := float64(k)
	r := y - float64(kf*ln2Hi) - float64(kf*ln2Lo)

	// e^r - 1 on [-ln2/2, ln2/2], degree-7 Taylor in Horner form (remainder
	// r^8/8! — relative error ~2e-8 at the interval edge, under a fifth of a
	// float32 ulp after the final conversion).
	q := 1/720.0 + r/5040.0
	q = 1/120.0 + float64(r*q)
	q = 1/24.0 + float64(r*q)
	q = 1/6.0 + float64(r*q)
	q = 1/2.0 + float64(r*q)
	q = 1 + float64(r*q)
	p := r * q

	// e^y - 1 = 2^k·(1+p) - 1 = 2^k·p + (2^k - 1). k is in [0, 26], so
	// 2^k is exact and built directly from the exponent bits.
	em1 := p
	if k != 0 {
		pow2k := math.Float64frombits(uint64(1023+k) << 52)
		em1 = float64(pow2k*p) + (pow2k - 1)
	}

	t := em1 / (em1 + 2)
	if neg {
		t = -t
	}
	return float32(t)
}
