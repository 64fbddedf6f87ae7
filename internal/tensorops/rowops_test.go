package tensorops

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// refEpilogue is the epilogue chain on one element, written out in scalar
// Go with nothing shared with rowEpi but tanh32 and QuantizeFP16: quantize
// (raw GEMM result), add bias and quantize, activate and quantize — each
// quantization only under quant. It is what every tier of rowEpi.apply, and
// the standalone operators built on it, must reproduce bit for bit.
func refEpilogue(v float32, bias *float32, act ActKind, clip float32, quant, raw bool) float32 {
	q := func(v float32) float32 {
		if quant {
			return tensor.QuantizeFP16(v)
		}
		return v
	}
	if raw {
		v = q(v)
	}
	if bias != nil {
		v = q(v + *bias)
	}
	switch act {
	case ActReLU:
		if v < 0 {
			v = 0
		}
	case ActClippedReLU:
		if v < 0 {
			v = 0
		} else if v > clip {
			v = clip
		}
	case ActTanh:
		v = tanh32(v)
	default:
		return v
	}
	return q(v)
}

// epilogueSpecials are the values planted among the random ones: both
// zeros, infinities, quiet and signalling NaNs with payloads, subnormals,
// the clip value and its neighbours, tanh's saturation edge, and the FP16
// overflow and underflow boundaries.
func epilogueSpecials(clip float32) []float32 {
	bits := []uint32{
		0, 1 << 31, 0x7f800000, 0xff800000, 0x7fc00000, 0xffc12345, 0x7f800001, 0x00000001, 0x80000001,
		0x41103d70, 0x41103d71, 0xc1103d71, 0x477fefff, 0x477ff000, 0xc77ff000, 0x33000000, 0x33000001, 0x387fffff,
	}
	out := []float32{clip, math.Nextafter32(clip, 100), math.Nextafter32(clip, -100), -clip}
	for _, b := range bits {
		out = append(out, math.Float32frombits(b))
	}
	return out
}

const (
	biasNone = iota
	biasRow
	biasCol
)

// checkEpilogueRow runs rowEpi.apply over vals (copied into a guarded
// buffer at the given misalignment) and compares with refEpilogue. bias
// holds one value per element for biasCol and is indexed by row for biasRow.
func checkEpilogueRow(t *testing.T, vals, bias []float32, biasKind int, act ActKind, clip float32, quant, raw bool, off int, desc string) {
	t.Helper()
	const guard = float32(-777.25)
	n := len(vals)
	ep := Epilogue{Act: act, Clip: clip}
	row := 0
	if biasKind != biasNone {
		ep.Bias = tensor.FromSlice(bias, len(bias))
		row = n / 2 % len(bias)
	}
	e := newRowEpi(ep, biasKind == biasRow, quant, raw)
	buf := make([]float32, off+n+9)
	for i := range buf {
		buf[i] = guard
	}
	copy(buf[off:], vals)
	bias0 := slices.Clone(bias)
	e.apply(buf[off:off+n], row)
	requireSameSlice(t, bias, bias0, "%s: bias written", desc)
	for i, got := range buf {
		j := i - off
		if j < 0 || j >= n {
			if got != guard {
				t.Fatalf("%s: wrote outside the segment at %d", desc, j)
			}
			continue
		}
		var bv *float32
		switch biasKind {
		case biasRow:
			bv = &bias[row]
		case biasCol:
			bv = &bias[j]
		}
		if want := refEpilogue(vals[j], bv, act, clip, quant, raw); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%s: [%d] %v (%#08x) -> %#08x, scalar chain %#08x",
				desc, j, vals[j], math.Float32bits(vals[j]), math.Float32bits(got), math.Float32bits(want))
		}
	}
}

// TestEpilogueRowMatchesScalarChain holds rowEpi.apply, under every tier,
// to the scalar chain: each activation × no/row/column bias × FP32/FP16 ×
// raw or written-back input × lengths 0…33 (scalar-only, one vector, whole
// vectors, and every overlap of the last vector with the one before) at
// misaligned starts, with the special values planted.
func TestEpilogueRowMatchesScalarChain(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(41)
		for _, act := range []ActKind{ActNone, ActReLU, ActClippedReLU, ActTanh} {
			for _, clip := range []float32{6, 0.75, -2} {
				if act != ActClippedReLU && clip != 6 {
					continue
				}
				specials := epilogueSpecials(clip)
				for biasKind := biasNone; biasKind <= biasCol; biasKind++ {
					for _, quant := range []bool{false, true} {
						for _, raw := range []bool{false, true} {
							for n := 0; n <= 33; n++ {
								vals := make([]float32, n)
								fillNormal(g, vals)
								for i := range vals {
									if (i+n)%3 == 0 {
										vals[i] = specials[(i*7+n)%len(specials)]
									} else if i%4 == 1 {
										vals[i] *= 8 // past the clips and into tanh's flat part
									}
								}
								bias := make([]float32, max(n, 1))
								fillNormal(g, bias)
								if n > 2 {
									bias[1], bias[2] = 0, float32(math.Inf(1))
								}
								desc := fmt.Sprintf("act=%d clip=%v bias=%d quant=%v raw=%v n=%d", act, clip, biasKind, quant, raw, n)
								checkEpilogueRow(t, vals, bias, biasKind, act, clip, quant, raw, n%4, desc)
							}
						}
					}
				}
			}
		}
	})
}

// FuzzEpilogueRow draws a segment, a bias, an activation, a clip and a
// precision from the fuzz input — the floats taken from the bytes as they
// are, so every bit pattern is reachable — and requires rowEpi.apply under
// every tier the CPU has to agree with the scalar chain bit for bit without
// touching anything outside the segment. A NaN bias is the one input the
// harness replaces: when both addends are NaN the hardware keeps the first
// operand's payload, and the compiler may order a scalar sum either way.
func FuzzEpilogueRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, ctl uint32, clip float32, b []byte) {
		n := len(b) / 8
		if n > 200 {
			t.Skip()
		}
		vals, bias := make([]float32, n), make([]float32, max(n, 1))
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[8*i:]))
			bias[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[8*i+4:]))
			if math.IsNaN(float64(bias[i])) {
				bias[i] = float32(i) - 2.5
			}
		}
		act := ActKind(ctl % 4)
		biasKind := int(ctl >> 2 % 3)
		quant, raw := ctl>>4&1 == 1, ctl>>5&1 == 1
		defer func(prev kernelTier) { gemmTier = prev }(gemmTier)
		for tier := tierPortable; tier <= bestTier(); tier++ {
			gemmTier = tier
			desc := fmt.Sprintf("tier=%v act=%d clip=%v bias=%d quant=%v raw=%v n=%d", tier, act, clip, biasKind, quant, raw, n)
			checkEpilogueRow(t, vals, bias, biasKind, act, clip, quant, raw, int(ctl>>6%4), desc)
		}
	})
}

// TestStandaloneOpsMatchScalarChain pins the public element-wise operators
// and ApplyEpilogue to the scalar chain on tensors that span several
// dispatch blocks, serial and sharded: a bias-less pass splits the flat
// data, a biased one splits by channel plane or by row.
func TestStandaloneOpsMatchScalarChain(t *testing.T) {
	g := tensor.NewRNG(43)
	x4 := randTensor(g, 2, 5, 67, 61) // 40870 elements: three blocks, the last one ragged
	x2 := randTensor(g, 7, 37)
	for i, d := 0, x4.Data(); i < len(d); i += 11 {
		d[i] = epilogueSpecials(6)[i/11%22]
	}
	b4, b2 := randTensor(g, 5), randTensor(g, 37)
	withProcs(t, []int{1, 3}, func(t *testing.T) {
		forEachTier(t, func(t *testing.T) {
			for _, prec := range []Precision{FP32, FP16} {
				for _, tc := range []struct {
					name    string
					x, bias *tensor.Tensor
					ep      Epilogue
					run     func(x *tensor.Tensor) *tensor.Tensor
				}{
					{"ReLU", x4, nil, Epilogue{Act: ActReLU}, func(x *tensor.Tensor) *tensor.Tensor { return ReLU(x, prec) }},
					{"ClippedReLU", x4, nil, Epilogue{Act: ActClippedReLU, Clip: 1.5}, func(x *tensor.Tensor) *tensor.Tensor { return ClippedReLU(x, 1.5, prec) }},
					{"Tanh", x4, nil, Epilogue{Act: ActTanh}, func(x *tensor.Tensor) *tensor.Tensor { return Tanh(x, prec) }},
					{"BiasAdd4D", x4, b4, Epilogue{}, func(x *tensor.Tensor) *tensor.Tensor { return BiasAdd(x, b4, prec) }},
					{"BiasAdd2D", x2, b2, Epilogue{}, func(x *tensor.Tensor) *tensor.Tensor { return BiasAdd(x, b2, prec) }},
					{"ApplyEpilogue4D", x4, b4, Epilogue{Act: ActTanh}, func(x *tensor.Tensor) *tensor.Tensor {
						return ApplyEpilogue(x.Clone(), Epilogue{Bias: b4, Act: ActTanh}, prec)
					}},
					{"ApplyEpilogue2D", x2, b2, Epilogue{Act: ActReLU}, func(x *tensor.Tensor) *tensor.Tensor {
						return ApplyEpilogue(x.Clone(), Epilogue{Bias: b2, Act: ActReLU}, prec)
					}},
				} {
					before := tc.x.Clone()
					got := tc.run(tc.x)
					requireSameBits(t, tc.x, before, "%s %v: input", tc.name, prec)
					want := tc.x.Clone()
					wd := want.Data()
					plane := 1
					if tc.x.Rank() == 4 {
						plane = tc.x.Dim(2) * tc.x.Dim(3)
					}
					for i, v := range wd {
						var bv *float32
						if tc.bias != nil {
							bv = &tc.bias.Data()[i/plane%tc.bias.Elems()]
						}
						wd[i] = refEpilogue(v, bv, tc.ep.Act, tc.ep.Clip, prec == FP16, false)
					}
					requireSameBits(t, got, want, "%s %v", tc.name, prec)
				}
			}
		})
	})
}

// TestMaxRowsMatchesScalar holds maxRows under every tier to the scalar
// fold: one and three rows of 1…33 windows at strides 1–3 over tap sets
// from one tap to a sampled 3×3, with NaNs, infinities and signed zeros
// planted. The source is cut out of a buffer filled with +Inf, which would
// win any maximum it entered, so a read past either end shows; the output
// rows have gaps between them, and nothing outside the rows is written.
func TestMaxRowsMatchesScalar(t *testing.T) {
	const guard = float32(-777.25)
	inf := float32(math.Inf(1))
	specials := []float32{float32(math.NaN()), float32(math.Copysign(0, -1)), 0, -inf, inf}
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(53)
		for _, offs := range [][]int{{0}, {0, 1}, {0, 1, 9, 10}, {0, 2, 8, 14, 16}, {0, 1, 2, 3}} {
			taps := make([]poolTap, len(offs))
			for i, off := range offs {
				taps[i].off = off
			}
			for stride := 1; stride <= 3; stride++ {
				for _, rows := range []int{1, 3} {
					for n := 1; n <= 33; n++ {
						dstRow, srcRow := n+3, 2*n+5
						need := (rows-1)*srcRow + (n-1)*stride + offs[len(offs)-1] + 1
						buf := make([]float32, need+32)
						for i := range buf {
							buf[i] = inf
						}
						src := buf[16 : 16+need]
						fillNormal(g, src)
						for i := 0; i < need; i += 5 {
							src[i] = specials[(i/5+n)%len(specials)]
						}
						dst := make([]float32, rows*dstRow+16)
						for i := range dst {
							dst[i] = guard
						}
						maxRows(dst[8:], src, taps, n, stride, rows, dstRow, srcRow)
						for i, got := range dst {
							r, j := (i-8)/dstRow, (i-8)%dstRow
							if i < 8 || r >= rows || j >= n {
								if got != guard {
									t.Fatalf("offs=%v stride=%d rows=%d n=%d: wrote outside the rows at %d", offs, stride, rows, n, i-8)
								}
								continue
							}
							want := float32(math.Inf(-1))
							for _, off := range offs {
								if v := src[r*srcRow+j*stride+off]; v > want {
									want = v
								}
							}
							if math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("offs=%v stride=%d rows=%d n=%d: row %d [%d] = %v, scalar fold %v", offs, stride, rows, n, r, j, got, want)
							}
						}
					}
				}
			}
		}
	})
}

// TestPoolMaxAVXShortRow: maxRows never hands the kernel a row of fewer
// than four outputs, and if called with one the kernel writes nothing rather
// than a four-lane block past the row's end.
func TestPoolMaxAVXShortRow(t *testing.T) {
	if bestTier() < tierAVX {
		t.Skip("no avx kernel tier on this CPU/architecture")
	}
	src := make([]float32, 16)
	taps := []poolTap{{}}
	for n := 1; n < 4; n++ {
		dst := []float32{-1, -1, -1, -1}
		poolMaxAVX(&dst[0], &src[0], &taps[0], len(taps), n, 2, 0, 8)
		for i, v := range dst {
			if v != -1 {
				t.Fatalf("n=%d: dst[%d] = %v, want it untouched", n, i, v)
			}
		}
	}
}

// TestDepthwiseRowsMatchScalar holds depthwiseRows under every tier to the
// scalar sum: one and three rows of 4…40 outputs at strides 1 and 2, over tap
// sets from one tap to a whole 3×3 window and sampled subsets of it, at
// unaligned bases, with signed zeros and either NaN or infinities among the
// inputs and the weights — never both, so one NaN payload at most arises:
// where two meet, which survives is the compiler's choice of operand order
// in a scalar loop. Only elements inside a window hold inputs; every other
// element of the source buffer is +Inf, which turns any output it enters
// into ±Inf or NaN, so a read outside the windows shows. The output rows
// have gaps between them, and nothing outside the rows is written.
func TestDepthwiseRowsMatchScalar(t *testing.T) {
	const guard = float32(-777.25)
	inf, negz := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	specialSets := [][]float32{{float32(math.NaN()), negz, 0}, {negz, 0, -inf, inf}}
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(59)
		for _, set := range [][]int{{4}, {0, 1}, {1, 3, 5, 7}, {0, 2, 4, 6, 8}, {0, 1, 2, 3, 4, 5, 6, 7, 8}} {
			for stride := 1; stride <= 2; stride++ {
				for _, rows := range []int{1, 3} {
					for n := 4; n <= 40; n++ {
						specials := specialSets[n%2]
						wp := n*stride + 2 // a padded plane's row: 3×3 windows over n outputs
						taps := make([]convTap, len(set))
						for i, k := range set {
							taps[i] = convTap{int32(k/3*wp + k%3), float32(g.NormFloat64())}
						}
						if n%3 == 0 {
							taps[n%len(taps)].w = specials[n%len(specials)]
						}
						dstRow, srcRow := n+3, stride*wp
						need := (rows-1)*srcRow + (n-1)*stride + int(taps[len(taps)-1].off) + 1
						buf := make([]float32, need+32)
						for i := range buf {
							buf[i] = inf
						}
						src := buf[16+n%4 : 16+n%4+need]
						for r := 0; r < rows; r++ {
							for j := 0; j < n; j++ {
								for _, tp := range taps {
									i := r*srcRow + j*stride + int(tp.off)
									src[i] = float32(g.NormFloat64())
									if i%7 == 0 {
										src[i] = specials[(i/7+n)%len(specials)]
									}
								}
							}
						}
						dst := make([]float32, rows*dstRow+16)
						for i := range dst {
							dst[i] = guard
						}
						off := 8 + (n+1)%4
						depthwiseRows(dst[off:], src, taps, n, stride, rows, dstRow, srcRow)
						desc := fmt.Sprintf("taps=%v stride=%d rows=%d n=%d", set, stride, rows, n)
						for i, got := range dst {
							r, j := (i-off)/dstRow, (i-off)%dstRow
							if i < off || r >= rows || j >= n {
								if got != guard {
									t.Fatalf("%s: wrote outside the rows at %d", desc, i-off)
								}
								continue
							}
							var want float32
							for _, tp := range taps {
								want += float32(tp.w * src[r*srcRow+j*stride+int(tp.off)])
							}
							if math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("%s: row %d [%d] = %v (%#08x), scalar sum %v (%#08x)",
									desc, r, j, got, math.Float32bits(got), want, math.Float32bits(want))
							}
						}
					}
				}
			}
		}
	})
}

// TestDepthwiseRowsAVXShortRow: depthwiseRows never hands the kernel a row
// of fewer than four outputs, and if called with one the kernel writes
// nothing rather than a four-lane block past the row's end.
func TestDepthwiseRowsAVXShortRow(t *testing.T) {
	if bestTier() < tierAVX {
		t.Skip("no avx kernel tier on this CPU/architecture")
	}
	src := make([]float32, 32)
	taps := []convTap{{0, 1}}
	for stride := 1; stride <= 2; stride++ {
		for n := 1; n < 4; n++ {
			dst := []float32{-1, -1, -1, -1}
			depthwiseRowsAVX(&dst[0], &src[0], &taps[0], len(taps), n, stride, 2, 0, 8)
			for i, v := range dst {
				if v != -1 {
					t.Fatalf("stride=%d n=%d: dst[%d] = %v, want it untouched", stride, n, i, v)
				}
			}
		}
	}
}

// TestGemmRowMatchesReference drives the row kernel under four rows through
// gemmRowBlock: one to three rows, panel counts 1…19 (the AVX tier's strips
// of four panels and up to three single panels after them), k from
// 1 to 33, A, the panels and the C rows at addresses that are not 32-byte
// aligned. A holds ±0 (skipped for every column, as gemmRef skips them),
// NaN and ±Inf; B holds NaN, ±Inf and −0 where A is finite. Guard values
// around each C row catch a store outside it; C starts as NaN, so a lane the
// kernel did not store shows.
func TestGemmRowMatchesReference(t *testing.T) {
	const guard = float32(-777.25)
	nan, inf, negz := float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1))
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(47)
		shifted := func(n, off int) []float32 { return make([]float32, n+off)[off:] }
		for _, k := range []int{1, 2, 7, 33} {
			for np := 1; np <= 19; np++ {
				for rows := 1; rows < gemmMR; rows++ {
					off := (np + rows) % 4
					n := np * gemmNR
					a, b := shifted(rows*k, off), make([]float32, k*n)
					fillNormal(g, a)
					fillNormal(g, b)
					if k >= 7 {
						a[1], a[(rows-1)*k+3] = 0, negz
						a[2] = []float32{nan, inf, -inf}[np%3]
						b[4*n+np%n], b[5*n+(np+1)%n], b[6*n] = nan, -inf, negz
					}
					packed := shifted(np*k*gemmNR, off)
					packRange(0, np, b, packed, k, n, false)
					want := make([]float32, rows*n)
					gemmRef(a, b, want, rows, k, n)
					ldc := n + 2*off + 1
					c := shifted(rows*ldc, off)
					for i := range c {
						c[i] = guard
					}
					for r := 0; r < rows; r++ {
						for j := range n {
							c[r*ldc+off+j] = nan
						}
					}
					gemmRowBlock(a, c, packed, 0, rows, k, ldc, off, np)
					for i, v := range c {
						r, j := i/ldc, i%ldc-off
						switch {
						case j < 0 || j >= n:
							if v != guard {
								t.Fatalf("k=%d np=%d rows=%d: wrote outside the row at C[%d][%d]", k, np, rows, r, j)
							}
						case math.Float32bits(v) != math.Float32bits(want[r*n+j]):
							t.Fatalf("k=%d np=%d rows=%d: C[%d][%d] = %v (%#08x), reference %v (%#08x)", k, np, rows, r, j,
								v, math.Float32bits(v), want[r*n+j], math.Float32bits(want[r*n+j]))
						}
					}
				}
			}
		}
	})
}

// TestInterpRowsMatchesScalar: lengths 0…33 at misaligned starts, with
// zeros of both signs, infinities, a NaN and values whose sum overflows
// among the operands, against the scalar statement 0.5·(a+b); nothing
// outside dst is written.
func TestInterpRowsMatchesScalar(t *testing.T) {
	const guard = float32(-777.25)
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(53)
		for n := 0; n <= 33; n++ {
			for off := 0; off < 4; off++ {
				a, b := make([]float32, n+off)[off:], make([]float32, n+2)[:n]
				fillNormal(g, a)
				fillNormal(g, b)
				if n > 6 {
					a[0], b[0] = float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1))
					a[1], b[2] = float32(math.Inf(1)), float32(math.NaN())
					a[n-1], b[n-1] = math.MaxFloat32, math.MaxFloat32
					a[3], b[3] = float32(math.Inf(1)), float32(math.Inf(-1))
				}
				buf := make([]float32, off+n+9)
				for i := range buf {
					buf[i] = guard
				}
				interpRows(buf[off:off+n], a, b)
				for i, got := range buf {
					j := i - off
					if j < 0 || j >= n {
						if got != guard {
							t.Fatalf("n=%d off=%d: wrote outside dst at %d", n, off, j)
						}
						continue
					}
					if want := 0.5 * (a[j] + b[j]); math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("n=%d off=%d: dst[%d] = %v, scalar %v", n, off, j, got, want)
					}
				}
			}
		}
	})
}

// TestExpandColsMatchesDefinition holds expandCols — the AVX steps and the
// loop — to the definition of a column-perforated row, at every stride and
// offset and row widths 4…21 (full and ragged last steps), in place (the
// kept values at the row's front, as the blocked kernel leaves them) and
// from a separate row. Kept values include MaxFloat32, which a copy keeps
// and 0.5·(v+v) would turn into +Inf, −0, ±Inf and a NaN.
func TestExpandColsMatchesDefinition(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(59)
		for stride := 2; stride <= 4; stride++ {
			for off := 0; off < stride; off++ {
				p := &perfSpec{dir: PerfCols, stride: stride, offset: off}
				for wo := 4; wo <= 21; wo++ {
					var kx []int // kept columns
					for x := 0; x < wo; x++ {
						if !p.skips(x) {
							kx = append(kx, x)
						}
					}
					nk := len(kx)
					if nk < colVec {
						continue
					}
					steps := p.colTable(nil, wo, nk)
					kept := make([]float32, nk)
					fillNormal(g, kept)
					kept[0], kept[nk-1] = math.MaxFloat32, math.MaxFloat32
					if nk > 5 {
						kept[1], kept[2], kept[3] = float32(math.Copysign(0, -1)), float32(math.Inf(-1)), float32(math.NaN())
					}
					want := make([]float32, wo)
					for c, x := range kx {
						want[x] = kept[c]
					}
					for x := 0; x < wo; x++ {
						switch {
						case !p.skips(x):
						case x > 0 && x+1 < wo:
							want[x] = 0.5 * (want[x-1] + want[x+1])
						case x > 0:
							want[x] = want[x-1]
						default:
							want[x] = want[x+1]
						}
					}
					for _, inPlace := range []bool{false, true} {
						row := make([]float32, wo)
						src := slices.Clone(kept)
						if inPlace {
							copy(row, kept)
							src = row[:nk]
						}
						expandCols(row, src, steps)
						for x := range want {
							if math.Float32bits(row[x]) != math.Float32bits(want[x]) {
								t.Fatalf("stride=%d off=%d wo=%d in place=%v: row[%d] = %v, want %v", stride, off, wo, inPlace, x, row[x], want[x])
							}
						}
					}
				}
			}
		}
	})
}
