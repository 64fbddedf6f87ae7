package tensor

import (
	"math"
	"testing"
)

// quantizeRef is the reference round-trip the QuantizeFP16 fast path must
// reproduce bit for bit: the full conversion pair.
func quantizeRef(v float32) float32 { return F16ToF32(F32ToF16(v)) }

// bitsEqual compares two float32 values as bit patterns so that NaN
// payloads and signed zeros are distinguished.
func bitsEqual(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b)
}

// TestQuantizeFP16MatchesReference sweeps the float32 encoding space with
// a prime stride (hitting every exponent, both signs and ~17M mantissa
// patterns) and checks the fast-path QuantizeFP16 against the reference
// conversion pair bit for bit.
func TestQuantizeFP16MatchesReference(t *testing.T) {
	const stride = 251
	for u := uint64(0); u < 1<<32; u += stride {
		v := math.Float32frombits(uint32(u))
		got := QuantizeFP16(v)
		want := quantizeRef(v)
		if !bitsEqual(got, want) {
			t.Fatalf("QuantizeFP16(%x=%v) = %x, reference %x",
				uint32(u), v, math.Float32bits(got), math.Float32bits(want))
		}
	}
}

// TestQuantizeFP16Boundaries exhausts the mantissa space around every
// boundary the fast path branches on: the subnormal/normal edge (biased
// exponent 112/113), the overflow edge (141/142/143), zeros, infinities
// and NaN.
func TestQuantizeFP16Boundaries(t *testing.T) {
	exps := []uint32{0, 1, 102, 103, 112, 113, 114, 140, 141, 142, 143, 254, 255}
	mants := []uint32{
		0, 1, 0xfff, 0x1000, 0x1001, 0x1fff, 0x2000,
		0x7fe000, 0x7fefff, 0x7ff000, 0x7fffff,
	}
	for _, sign := range []uint32{0, 1 << 31} {
		for _, e := range exps {
			for _, m := range mants {
				u := sign | e<<23 | m
				v := math.Float32frombits(u)
				got := QuantizeFP16(v)
				want := quantizeRef(v)
				if !bitsEqual(got, want) {
					t.Fatalf("QuantizeFP16(%#08x=%v) = %#08x, reference %#08x",
						u, v, math.Float32bits(got), math.Float32bits(want))
				}
			}
		}
	}
}

func TestQuantizeFP16SliceMatchesScalar(t *testing.T) {
	g := NewRNG(9)
	src := make([]float32, 1024)
	for i := range src {
		src[i] = float32(g.NormFloat64() * math.Pow(2, float64(i%40-20)))
	}
	src[0] = float32(math.Inf(1))
	src[1] = float32(math.Inf(-1))
	src[2] = float32(math.NaN())
	src[3] = 0
	dst := make([]float32, len(src))
	QuantizeFP16Slice(dst, src)
	for i, v := range src {
		if want := quantizeRef(v); !bitsEqual(dst[i], want) {
			t.Fatalf("elem %d: got %x, want %x", i, math.Float32bits(dst[i]), math.Float32bits(want))
		}
	}
	// In-place aliasing must work: ToFP16 uses dst == src.
	QuantizeFP16Slice(src, src)
	for i := range src {
		if !bitsEqual(src[i], dst[i]) {
			t.Fatalf("in-place elem %d: %x != %x", i, math.Float32bits(src[i]), math.Float32bits(dst[i]))
		}
	}
}

// TestCacheIdentity pins the MarkCacheable contract: unmarked tensors are
// never cacheable, marking is idempotent, and neither a clone nor a view
// inherits the mark.
func TestCacheIdentity(t *testing.T) {
	a := New(4)
	if _, ok := a.DerivedBytes(); ok {
		t.Fatal("unmarked tensor reports itself cacheable")
	}
	a.InvalidateCache() // no-op, and must not mark
	if _, ok := a.DerivedBytes(); ok {
		t.Fatal("InvalidateCache marked an unmarked tensor")
	}
	a.MarkCacheable()
	key := DerivedKey{Kind: 1}
	v1, ok := a.Derive(key, func() (any, int64) { return new(int), 8 })
	if !ok {
		t.Fatal("marked tensor refused an operand")
	}
	a.MarkCacheable() // idempotent: keeps what it holds
	if v2, _ := a.Derive(key, func() (any, int64) { return new(int), 8 }); v2 != v1 {
		t.Fatal("re-marking dropped the tensor's operands")
	}
	// Clones and reshaped views must not inherit the mark: their data
	// diverges (clone) or aliases without shared invalidation (view).
	if _, ok := a.Clone().DerivedBytes(); ok {
		t.Fatal("clone inherited the cacheable mark")
	}
	if _, ok := a.Reshape(2, 2).DerivedBytes(); ok {
		t.Fatal("reshape view inherited the cacheable mark")
	}
}
