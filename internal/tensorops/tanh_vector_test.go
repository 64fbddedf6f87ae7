package tensorops

import (
	"math"
	"sync"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// requireVectorTier skips unless this CPU runs the AVX row kernels.
func requireVectorTier(t *testing.T) {
	t.Helper()
	if gemmTier != tierAVX {
		t.Skip("no vector row kernels on this CPU/architecture (needs amd64 with AVX)")
	}
}

// checkTanhChunk runs the bit patterns in src through tanhSlice and compares
// every element with the scalar tanh32, by bits. It also holds tanh32 to
// what moving it past a max pool rests on (MaxPoolSampledTanh): it returns
// ±0 only for ±0, and it never decreases — checked between neighbours in
// src, and between prev, the input before src[0], and src[0] (a NaN prev
// checks nothing).
func checkTanhChunk(t *testing.T, dst, src []float32, prev float32) bool {
	tanhSlice(dst, src)
	prevY := tanh32(prev)
	for i, v := range src {
		want := tanh32(v)
		if math.Float32bits(dst[i]) != math.Float32bits(want) {
			t.Errorf("tanhSlice(%#08x=%v) = %#08x, scalar tanh32 %#08x",
				math.Float32bits(v), v, math.Float32bits(dst[i]), math.Float32bits(want))
			return false
		}
		if want == 0 && v != 0 {
			t.Errorf("tanh32(%#08x=%v) = %v", math.Float32bits(v), v, want)
			return false
		}
		if prev < v && prevY > want || prev > v && prevY < want {
			t.Errorf("tanh32 decreases: tanh32(%v) = %v, tanh32(%v) = %v", prev, prevY, v, want)
			return false
		}
		prev, prevY = v, want
	}
	return true
}

// TestTanhSliceVectorMatchesScalar sweeps the four-lane kernel against
// tanh32: all 2^32 float32 patterns (≈ 40 CPU-seconds) — so −0, every NaN
// payload, ±Inf, the subnormals and both sides of the 9.015 saturation edge
// are covered by construction — or, under -short and the race detector,
// every exponent × a prime mantissa stride plus the neighbourhood of each
// binade edge and of the saturation edge. The full sweep visits the
// patterns of each sign in order of magnitude, so it also checks that
// tanh32 never decreases anywhere.
func TestTanhSliceVectorMatchesScalar(t *testing.T) {
	requireVectorTier(t)
	const chunk = 1 << 16
	if testing.Short() || raceEnabled {
		src := make([]float32, 0, chunk)
		dst := make([]float32, chunk)
		flush := func() {
			checkTanhChunk(t, dst[:len(src)], src, float32(math.NaN()))
			src = src[:0]
		}
		add := func(u uint32) {
			src = append(src, math.Float32frombits(u), math.Float32frombits(u|1<<31))
			if len(src) == chunk {
				flush()
			}
		}
		for e := uint32(0); e < 256 && !t.Failed(); e++ {
			for m := uint32(0); m < 1<<23; m += 1021 {
				add(e<<23 | m)
			}
			for d := uint32(0); d < 4; d++ {
				add((e<<23 + d) & 0x7fffffff)
				add((e<<23 - d) & 0x7fffffff)
			}
		}
		// 2x crosses 18.03 just above 9.015; every pattern for 2^12 either side.
		edge := math.Float32bits(9.015)
		for u := edge - 1<<12; u < edge+1<<12; u++ {
			add(u)
		}
		flush()
		return
	}
	workers := parallel.Workers()
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
				// The pattern before a chunk; a NaN at either sign's start.
				if !checkTanhChunk(t, dst, src, math.Float32frombits(uint32(base)-1)) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestTanhFP16NeverDecreases: under an FP16 convolution, the tanh moved
// past a max pool is tanh32 followed by the round to half precision, applied
// to half-precision values. Over all 65 536 halves h, that must never
// decrease, and must be nonzero for every nonzero h.
func TestTanhFP16NeverDecreases(t *testing.T) {
	for _, sign := range []uint16{0, 0x8000} {
		var prevY float32
		for m := uint16(0); m <= 0x7c00; m++ { // ±0 up to ±Inf, by magnitude
			h := tensor.F16ToF32(sign | m)
			y := tensor.QuantizeFP16(tanh32(h))
			if y == 0 && m != 0 {
				t.Fatalf("FP16(tanh32(%v)) = %v", h, y)
			}
			if m > 0 && (sign == 0 && y < prevY || sign != 0 && y > prevY) {
				t.Fatalf("FP16(tanh32) decreases at the half %#04x = %v: %v after %v", sign|m, h, y, prevY)
			}
			prevY = y
		}
	}
}

// TestTanhSliceTailsAndAliasing covers what the sweep's long aligned chunks
// do not: every length 0…17 (the scalar remainder after 0 to 4 vector
// groups), unaligned starts, dst == src, and that nothing past len(src) is
// written.
func TestTanhSliceTailsAndAliasing(t *testing.T) {
	requireVectorTier(t)
	specials := []uint32{
		0, 1 << 31, 1, 0x80000001, 0x3f800000, 0xbf800000, 0x3eb17218, 0x41103d70, 0x41103d71,
		0xc1103d70, 0x7f800000, 0xff800000, 0x7f800001, 0xffc12345, 0x7fffffff, 0x3dcccccd, 0xc2f6e979, 0x40490fdb,
	}
	const guard = float32(12345.678)
	for n := 0; n <= 17; n++ {
		for off := 0; off < 3; off++ {
			buf := make([]float32, off+n+8)
			want := make([]float32, n)
			for i := 0; i < n; i++ {
				buf[off+i] = math.Float32frombits(specials[(i+off+n)%len(specials)])
				want[i] = tanh32(buf[off+i])
			}
			src := buf[off : off+n]
			out := make([]float32, off+n+8)
			for i := range out {
				out[i] = guard
			}
			tanhSlice(out[off:], src)
			for i, v := range out {
				switch {
				case i >= off && i < off+n:
					if math.Float32bits(v) != math.Float32bits(want[i-off]) {
						t.Fatalf("n=%d off=%d: dst[%d] = %#08x, want %#08x", n, off, i-off, math.Float32bits(v), math.Float32bits(want[i-off]))
					}
				case v != guard:
					t.Fatalf("n=%d off=%d: wrote outside dst[:len(src)] at %d", n, off, i-off)
				}
			}
			tanhSlice(src, src)
			for i := range src {
				if math.Float32bits(src[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n=%d off=%d in place: [%d] = %#08x, want %#08x", n, off, i, math.Float32bits(src[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}
