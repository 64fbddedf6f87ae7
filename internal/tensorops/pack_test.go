package tensorops

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// packCase draws what one packRun call sees: kc ascending offsets the way a
// plan's table ascends (steps of 1 inside a filter row, jumps between rows
// and channels), and a source cut to exactly the extent the routine may
// read — one float shorter and packRun's own slicing panics. Every source
// element is its index, so a misplaced copy names where it read.
func packCase(g *tensor.RNG, kc, run int) (offs []int32, src []float32) {
	offs = make([]int32, kc)
	o := g.Intn(4)
	for l := range offs {
		offs[l] = int32(o)
		o += 1 + g.Intn(2)*g.Intn(40)
	}
	src = make([]float32, int(offs[kc-1])+run*gemmNR)
	for i := range src {
		src[i] = float32(i)
	}
	return offs, src
}

// TestPackRunTiersMatch pins every tier of packRun — the AVX routine, which
// checks no bounds, and the Go loop — to the definition dst[(p·kc+l)·8+j] =
// src[offs[l]+8p+j], j < 8, over random (kc, run, offsets): odd and even kc
// exercise the two-row step and its odd last row, run = 1…9 one panel and
// many. dst sits between guard words that must survive, and every lane is
// checked, the last of each row included.
func TestPackRunTiersMatch(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(61)
		const guard = 8
		for iter := 0; iter < 400; iter++ {
			kc, run := 1+g.Intn(40), 1+g.Intn(9)
			if iter%10 == 0 {
				kc = []int{27, 144, 576, 1152}[iter/10%4]
			}
			offs, src := packCase(g, kc, run)
			buf := make([]float32, 2*guard+run*kc*gemmNR)
			for i := range buf {
				buf[i] = float32(math.NaN())
			}
			dst := buf[guard : len(buf)-guard : len(buf)-guard]
			packRun(dst, src, offs, run)
			for i, v := range buf {
				in := i >= guard && i < len(buf)-guard
				if !in {
					if !math.IsNaN(float64(v)) {
						t.Fatalf("kc=%d run=%d: guard word %d overwritten with %v", kc, run, i-guard, v)
					}
					continue
				}
				d := i - guard
				p, l, j := d/(kc*gemmNR), d/gemmNR%kc, d%gemmNR
				if want := float32(int(offs[l]) + p*gemmNR + j); v != want {
					t.Fatalf("kc=%d run=%d: dst[panel %d][l %d][%d] = %v, want src[%v]", kc, run, p, l, j, v, want)
				}
			}
		}
	})
}

// TestPackQuadTiersMatch pins every tier of packQuad — the AVX permute and
// blend over two four-float windows a half, which checks no bounds, and the
// gather — to the definition dst[l·8+q] = src[b[q]+offs[l]], q < 8: columns
// one, two or three floats apart inside one window (a stride-2 or -3
// convolution, column perforation), a half split between the window at its
// first column and the one ending at its last (a panel that straddles two
// output rows or two images), and a half spread too far for either (the
// gather on every tier for the whole panel), over random kc and
// offsets. The source ends at the last float read, and dst sits between
// guard words that must survive.
func TestPackQuadTiersMatch(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(67)
		const guard = 8
		vector := 0
		for iter := 0; iter < 600; iter++ {
			kc := 1 + g.Intn(40)
			if iter%10 == 0 {
				kc = []int{27, 144, 576, 1152}[iter/10%4]
			}
			var b [gemmNR]int32
			b[0] = int32(g.Intn(5))
			for q := 1; q < gemmNR; q++ {
				step := 1 + g.Intn(3) // inside a window
				if g.Intn(6) == 0 {
					step += g.Intn(60) // a jump to another row or image
				}
				b[q] = b[q-1] + int32(step)
			}
			if _, _, ok := quadWindows(&b); ok {
				vector++
			}
			offs, _ := packCase(g, kc, 1)
			src := make([]float32, int(b[gemmNR-1])+int(offs[kc-1])+1)
			for i := range src {
				src[i] = float32(i)
			}
			buf := make([]float32, 2*guard+kc*gemmNR)
			for i := range buf {
				buf[i] = float32(math.NaN())
			}
			dst := buf[guard : len(buf)-guard : len(buf)-guard]
			packQuad(dst, src, offs, &b)
			for i, v := range buf {
				if i < guard || i >= len(buf)-guard {
					if !math.IsNaN(float64(v)) {
						t.Fatalf("kc=%d b=%v: guard word %d overwritten with %v", kc, b, i-guard, v)
					}
					continue
				}
				l, q := (i-guard)/gemmNR, (i-guard)%gemmNR
				if want := float32(int(b[q]) + int(offs[l])); v != want {
					t.Fatalf("kc=%d b=%v: dst[l %d][%d] = %v, want src[%v]", kc, b, l, q, v, want)
				}
			}
		}
		if vector < 100 {
			t.Fatalf("only %d of 600 cases fit the two windows in both halves", vector)
		}
	})
}
