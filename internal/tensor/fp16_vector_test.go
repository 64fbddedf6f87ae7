package tensor

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// TestF32ToF16RoundsUpAboveHalfSmallestSubnormal pins the underflow edge:
// anything strictly above 2^-25 is nearer to the smallest subnormal half
// 2^-24 than to zero, and exactly 2^-25 ties to even (zero).
func TestF32ToF16RoundsUpAboveHalfSmallestSubnormal(t *testing.T) {
	cases := []struct {
		in   uint32
		want uint16
	}{
		{0x33000000, 0x0000}, // 2^-25: tie, even is zero
		{0x33000001, 0x0001}, // first pattern above the tie
		{0x337fffff, 0x0001},
		{0x32ffffff, 0x0000}, // just below the tie
		{0xb3000000, 0x8000},
		{0xb3000001, 0x8001},
		{0x33800000, 0x0001}, // 2^-24 itself
	}
	for _, tc := range cases {
		if got := F32ToF16(math.Float32frombits(tc.in)); got != tc.want {
			t.Errorf("F32ToF16(%#08x) = %#04x, want %#04x", tc.in, got, tc.want)
		}
	}
	if got := math.Float32bits(QuantizeFP16(math.Float32frombits(0x33000001))); got != 0x33800000 {
		t.Errorf("QuantizeFP16(0x33000001) = %#08x, want 0x33800000", got)
	}
}

// requireVectorFP16 skips unless this CPU runs the vector tier.
func requireVectorFP16(t *testing.T) {
	t.Helper()
	if quantizeBulk == nil {
		t.Skip("no vector FP16 tier on this CPU (needs amd64 with AVX and F16C)")
	}
}

// checkVectorChunk quantizes the bit patterns in src through the vector
// QuantizeFP16Slice and compares every element with the scalar QuantizeFP16.
func checkVectorChunk(t *testing.T, dst, src []float32) bool {
	QuantizeFP16Slice(dst, src)
	for i, v := range src {
		if want := QuantizeFP16(v); !bitsEqual(dst[i], want) {
			t.Errorf("QuantizeFP16Slice(%#08x) = %#08x, scalar QuantizeFP16 %#08x",
				math.Float32bits(v), math.Float32bits(dst[i]), math.Float32bits(want))
			return false
		}
	}
	return true
}

// TestQuantizeFP16SliceVectorMatchesScalar sweeps the vector kernel against
// the scalar converter: all 2^32 float32 patterns (≈ 30 CPU-seconds), or under -short
// and the race detector every exponent × a prime mantissa stride plus the ±1
// neighbours of every rounding boundary in every binade.
func TestQuantizeFP16SliceVectorMatchesScalar(t *testing.T) {
	requireVectorFP16(t)
	const chunk = 1 << 16
	if testing.Short() || raceEnabled {
		src := make([]float32, 0, chunk)
		dst := make([]float32, chunk)
		flush := func() {
			checkVectorChunk(t, dst[:len(src)], src)
			src = src[:0]
		}
		add := func(u uint32) {
			src = append(src, math.Float32frombits(u), math.Float32frombits(u|1<<31))
			if len(src) == chunk {
				flush()
			}
		}
		// Mantissa values where some binade's rounding changes: the
		// binade edge, the normal-half tie (bit 12) and its ulp (bit 13),
		// and each subnormal-half tie (bits 13…23 as the shift grows).
		edges := []uint32{0, 0x7fffff}
		for b := uint(12); b < 23; b++ {
			edges = append(edges, 1<<b, 1<<b|1<<(b+1)&0x7fffff, 0x7fffff&^(1<<b-1))
		}
		for e := uint32(0); e < 256 && !t.Failed(); e++ {
			for m := uint32(0); m < 1<<23; m += 1021 {
				add(e<<23 | m)
			}
			for _, m := range edges {
				u := e<<23 | m
				add(u - 1&0x7fffffff)
				add(u)
				add(u + 1&0x7fffffff)
			}
		}
		flush()
		return
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src, dst := make([]float32, chunk), make([]float32, chunk)
			for base := uint64(w) * chunk; base < 1<<32 && !t.Failed(); base += uint64(workers) * chunk {
				for i := range src {
					src[i] = math.Float32frombits(uint32(base) + uint32(i))
				}
				if !checkVectorChunk(t, dst, src) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestQuantizeFP16SliceTailsAndAliasing covers what the sweep's long
// aligned chunks do not: every length 0…17 (so the scalar tail after 0, 1
// and 2 vector groups), unaligned starts, dst == src, and that nothing
// past len(src) is written.
func TestQuantizeFP16SliceTailsAndAliasing(t *testing.T) {
	requireVectorFP16(t)
	specials := []uint32{
		0, 1 << 31, 0x33000001, 0x33000000, 0x387fffff, 0x38800000, 0x3f801000, 0x3f803000,
		0x477fefff, 0x477ff000, 0x7f800000, 0xff800000, 0x7f800001, 0xffc12345, 0x7fffffff,
		0x3dcccccd, 0xc2f6e979, 0x00000001,
	}
	const guard = float32(12345.678)
	for n := 0; n <= 17; n++ {
		for off := 0; off < 3; off++ {
			buf := make([]float32, off+n+8)
			want := make([]float32, n)
			for i := 0; i < n; i++ {
				buf[off+i] = math.Float32frombits(specials[(i+off+n)%len(specials)])
				want[i] = QuantizeFP16(buf[off+i])
			}
			src := buf[off : off+n]
			out := make([]float32, off+n+8)
			for i := range out {
				out[i] = guard
			}
			QuantizeFP16Slice(out[off:], src)
			for i, v := range out {
				switch {
				case i >= off && i < off+n:
					if !bitsEqual(v, want[i-off]) {
						t.Fatalf("n=%d off=%d: dst[%d] = %#08x, want %#08x", n, off, i-off, math.Float32bits(v), math.Float32bits(want[i-off]))
					}
				case v != guard:
					t.Fatalf("n=%d off=%d: wrote outside dst[:len(src)] at %d", n, off, i-off)
				}
			}
			QuantizeFP16Slice(src, src)
			for i := range src {
				if !bitsEqual(src[i], want[i]) {
					t.Fatalf("n=%d off=%d in place: [%d] = %#08x, want %#08x", n, off, i, math.Float32bits(src[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestQuantizeFP16SliceScalarTier runs the slice entry point with the vector
// tier switched off, so the scalar loop stays covered on hosts that would
// otherwise never take it for long slices.
func TestQuantizeFP16SliceScalarTier(t *testing.T) {
	defer func(f func(dst, src []float32) int) { quantizeBulk = f }(quantizeBulk)
	quantizeBulk = nil
	TestQuantizeFP16SliceMatchesScalar(t)
}
