package tensor

import "math"

// IEEE 754 binary16 ("FP16") conversion. The paper's tensor library stores
// operands in half precision when an FP16 knob is selected; on our simulated
// devices the semantic effect is the round-trip float32 -> float16 -> float32
// quantization implemented here, which is hardware-independent exactly as
// §2.3 of the paper requires. Conversion uses round-to-nearest-even and
// handles subnormals, infinities and NaN.

// F32ToF16 converts a float32 to its IEEE binary16 bit pattern.
func F32ToF16(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23) & 0xff
	mant := bits & 0x7fffff

	switch {
	case exp == 0xff: // Inf or NaN
		if mant != 0 {
			// NaN: keep a non-zero mantissa (quiet bit set).
			return sign | 0x7e00
		}
		return sign | 0x7c00
	case exp > 142: // overflow (unbiased exp > 15): round to infinity
		return sign | 0x7c00
	case exp < 103: // below the smallest subnormal half, 2^-24
		if exp == 102 && mant != 0 {
			// Strictly above the half-way point 2^-25: nearest is 2^-24.
			// (Exactly 2^-25 ties to even, which is zero.)
			return sign | 1
		}
		return sign
	case exp < 113: // subnormal half
		// Shift mantissa (with implicit leading 1) right so the exponent
		// becomes the minimum; round to nearest even.
		mant |= 0x800000
		shift := uint32(126 - exp) // 14..23
		half := uint32(1) << (shift - 1)
		rounded := mant + half
		// Round-to-nearest-even: if we were exactly halfway, clear LSB.
		if mant&((half<<1)-1) == half {
			rounded = mant + half - 1 + (mant>>shift)&1
		}
		return sign | uint16(rounded>>shift)
	default: // normal half
		hExp := uint32(exp - 112) // rebias 127 -> 15
		// Round mantissa from 23 to 10 bits, nearest even.
		rounded := mant + 0xfff + (mant>>13)&1
		if rounded&0x800000 != 0 {
			// Mantissa rounded up past 1.0: bump exponent.
			rounded = 0
			hExp++
			if hExp >= 31 {
				return sign | 0x7c00
			}
		}
		return sign | uint16(hExp<<10) | uint16(rounded>>13)
	}
}

// F16ToF32 converts an IEEE binary16 bit pattern to float32.
func F16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	mant := uint32(h & 0x3ff)

	switch {
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal half: normalize.
		e := uint32(113)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | (e << 23) | (mant << 13))
	case exp == 0x1f:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7f800000)
		}
		return math.Float32frombits(sign | 0x7fc00000 | (mant << 13))
	default:
		return math.Float32frombits(sign | ((exp + 112) << 23) | (mant << 13))
	}
}

// QuantizeFP16 rounds v through half precision. Values whose biased
// float32 exponent lies in [113,141] — normal halves whose mantissa
// rounding cannot overflow past the largest finite half — take a pure
// bit-manipulation fast path: adding 0xfff plus the round-to-even tie bit
// and clearing the low 13 mantissa bits performs exactly the
// round-to-nearest-even of F32ToF16, with a mantissa carry propagating
// into the exponent field precisely when rounding bumps the binade.
// Everything else (zeros, subnormal halves, overflow candidates at
// exponent 142, Inf, NaN) goes through the reference conversion pair, so
// the result is bit-identical to F16ToF32(F32ToF16(v)) for every input
// (fp16_test.go sweeps the encoding space to pin this). The fast path
// covers exponents 113–141 only, so F32ToF16's rounding at the underflow
// edge (exponent 102) does not reach it.
func QuantizeFP16(v float32) float32 {
	bits := math.Float32bits(v)
	if e := (bits >> 23) & 0xff; e-113 < 29 {
		r := bits + 0xfff + ((bits >> 13) & 1)
		return math.Float32frombits(r &^ 0x1fff)
	}
	return F16ToF32(F32ToF16(v))
}

// quantizeBulk, when non-nil, is the vector tier of QuantizeFP16Slice: it
// quantizes a leading run of src into dst and returns the run's length. On
// amd64 with F16C it is the VCVTPS2PH/VCVTPH2PS kernel (fp16_amd64.s),
// bit-identical to QuantizeFP16; elsewhere it stays nil. Tests swap it.
var quantizeBulk func(dst, src []float32) int

// QuantizeFP16Slice quantizes src through half precision into dst
// (dst and src may be the same slice). It is the bulk entry point the
// kernel paths use; len(dst) must be at least len(src).
func QuantizeFP16Slice(dst, src []float32) {
	dst = dst[:len(src)]
	done := 0
	if quantizeBulk != nil {
		done = quantizeBulk(dst, src)
	}
	for i := done; i < len(src); i++ {
		dst[i] = QuantizeFP16(src[i])
	}
}

// ToFP16 quantizes every element of t through half precision in place and
// returns t. Approximate kernels call this on inputs, weights and outputs
// when an FP16 knob variant is active.
func (t *Tensor) ToFP16() *Tensor {
	QuantizeFP16Slice(t.data, t.data)
	return t
}

// CloneFP16 returns a copy of t with every element quantized to FP16.
func (t *Tensor) CloneFP16() *Tensor {
	c := t.Clone()
	return c.ToFP16()
}
