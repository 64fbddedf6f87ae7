package tensorops

import (
	"sync"
	"testing"

	"repro/internal/tensor"
)

// TestMatMulPrepackedBitIdentical pins the pack-once contract: a dense
// layer run through cached prepacked panels must be bit-identical to the
// per-call engine, cold and warm, both precisions, across the full
// differential grid (remainder rows, tail columns, sub-panel shapes).
func TestMatMulPrepackedBitIdentical(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(29)
		for _, m := range gemmShapes {
			for _, k := range gemmShapes {
				for _, n := range gemmShapes {
					x := randTensor(g, m, k)
					w := randTensor(g, k, n)
					cw := w.Clone().MarkCacheable()
					for _, prec := range []Precision{FP32, FP16} {
						want := MatMul(x, w, prec)        // transient weight: packed per call
						for pass := 0; pass < 2; pass++ { // cold (pack) then warm (hit)
							requireSameBits(t, MatMul(x, cw, prec), want,
								"m=%d k=%d n=%d prec=%v pass=%d", m, k, n, prec, pass)
						}
					}
				}
			}
		}
	})
}

// TestPackCacheHitsAndInvalidate drives one marked tensor through
// miss → hit → invalidate → miss and checks the byte accounting.
func TestPackCacheHitsAndInvalidate(t *testing.T) {
	g := tensor.NewRNG(3)
	w := randTensor(g, 8, 8).MarkCacheable()

	q1, ok := cachedQuantized(w)
	if !ok {
		t.Fatal("cacheable tensor rejected")
	}
	q2, _ := cachedQuantized(w)
	if &q1[0] != &q2[0] {
		t.Error("second lookup rebuilt instead of hitting")
	}
	if b, _ := w.DerivedBytes(); b != int64(4*w.Elems()) {
		t.Errorf("bytes = %d, want %d", b, 4*w.Elems())
	}

	// An in-place mutation followed by InvalidatePacked must drop the
	// operand and miss.
	w.Data()[0] += 1
	InvalidatePacked(w)
	if b, _ := w.DerivedBytes(); b != 0 {
		t.Errorf("after invalidate: %d bytes resident", b)
	}
	q3, _ := cachedQuantized(w)
	if &q3[0] == &q1[0] || q3[0] != tensor.QuantizeFP16(w.Data()[0]) {
		t.Error("stale operand returned after invalidation")
	}
}

// TestPackCacheUncacheableTensor: tensors never marked cacheable must keep
// nothing.
func TestPackCacheUncacheableTensor(t *testing.T) {
	g := tensor.NewRNG(5)
	w := randTensor(g, 8, 8)
	if _, ok := cachedQuantized(w); ok {
		t.Error("unmarked tensor was cached")
	}
	if cachedPrepackedB(w, 8, 8, FP32) != nil {
		t.Error("unmarked tensor produced prepacked panels")
	}
	if cachedSampledFilter(randTensor(g, 8, 4, 3, 3), sampSpec{stride: 2}) != nil {
		t.Error("unmarked tensor produced a sampled filter")
	}
	if _, ok := w.DerivedBytes(); ok {
		t.Error("a lookup marked the tensor")
	}
}

// TestPackCacheConcurrent hammers four marked tensors with concurrent
// lookups and invalidations; run under -race this pins the
// synchronisation, and whatever interleaving ran, the operands left behind
// must be those of the tensors' contents.
func TestPackCacheConcurrent(t *testing.T) {
	g := tensor.NewRNG(13)
	tensors := make([]*tensor.Tensor, 4)
	for i := range tensors {
		tensors[i] = randTensor(g, 32, 32).MarkCacheable()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				tn := tensors[(w+iter)%len(tensors)]
				switch {
				case w%4 == 3 && iter%17 == 0:
					InvalidatePacked(tn)
				case w%2 == 0:
					if q, ok := cachedQuantized(tn); !ok || len(q) != tn.Elems() {
						t.Error("bad quantized lookup")
						return
					}
				default:
					if p := cachedPrepackedB(tn, 32, 32, FP32); p == nil || p.np != 32/gemmNR {
						t.Error("bad prepacked lookup")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, tn := range tensors {
		q, _ := cachedQuantized(tn)
		for i, v := range tn.Data() {
			if q[i] != tensor.QuantizeFP16(v) {
				t.Fatalf("quantized copy [%d] = %v, want %v", i, q[i], tensor.QuantizeFP16(v))
			}
		}
	}
}

// fusedCases is the epilogue differential grid shared by the conv and
// matmul fusion tests.
var fusedCases = []struct {
	name string
	ep   Epilogue
}{
	{"none", Epilogue{}},
	{"bias", Epilogue{}}, // Bias filled in by the test
	{"bias+relu", Epilogue{Act: ActReLU}},
	{"bias+relu6", Epilogue{Act: ActClippedReLU, Clip: 6}},
	{"bias+tanh", Epilogue{Act: ActTanh}},
	{"relu", Epilogue{Act: ActReLU}},
}

// unfusedChain applies the pre-fusion operator sequence: the standalone
// BiasAdd / activation passes, each requantizing under FP16 exactly as the
// old graph executor did.
func unfusedChain(out *tensor.Tensor, ep Epilogue, prec Precision) *tensor.Tensor {
	if ep.Bias != nil {
		out = BiasAdd(out, ep.Bias, prec)
	}
	switch ep.Act {
	case ActReLU:
		out = ReLU(out, prec)
	case ActClippedReLU:
		out = ClippedReLU(out, ep.Clip, prec)
	case ActTanh:
		out = Tanh(out, prec)
	}
	return out
}

// TestConv2DFusedMatchesUnfused pins the fused epilogue against the
// separate-pass chain, bit for bit, for cacheable and transient operands
// under both precisions.
func TestConv2DFusedMatchesUnfused(t *testing.T) {
	g := tensor.NewRNG(17)
	p := ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	for _, cacheable := range []bool{false, true} {
		x := randTensor(g, 2, 3, 9, 9)
		w := randTensor(g, 8, 3, 3, 3)
		bias := randTensor(g, 8)
		if cacheable {
			x.MarkCacheable()
			w.MarkCacheable()
		}
		for _, prec := range []Precision{FP32, FP16} {
			for _, tc := range fusedCases {
				ep := tc.ep
				if tc.name != "none" && tc.name != "relu" {
					ep.Bias = bias
				}
				want := unfusedChain(Conv2D(x, w, p, prec), ep, prec)
				for pass := 0; pass < 2; pass++ { // cold + warm cache
					got := Conv2DFused(x, w, p, prec, ep)
					wd, gd := want.Data(), got.Data()
					for i := range wd {
						if wd[i] != gd[i] {
							t.Fatalf("cacheable=%v prec=%v %s pass=%d: out[%d] = %v, unfused %v",
								cacheable, prec, tc.name, pass, i, gd[i], wd[i])
						}
					}
				}
			}
		}
	}
}

// TestConv2DPerforatedFusedMatchesUnfused pins perforation's fused tail —
// scatter, interpolation and epilogue one output plane at a time — against
// the standalone chain: the bare perforated convolution followed by the
// whole-tensor operators. Rows and columns, strides 2–4 at every offset,
// both precisions, the blocked kernel (cog 8) and the direct one (cog 2),
// on an odd-sized output so that a skipped row or column also falls last.
func TestConv2DPerforatedFusedMatchesUnfused(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(37)
		for _, groups := range []int{1, 4} {
			p := ConvParams{PadH: 1, PadW: 1, Groups: groups}
			x := randTensor(g, 2, 4, 9, 11)
			w := randTensor(g, 8, 4/groups, 3, 3)
			bias := randTensor(g, w.Dim(0))
			for _, prec := range []Precision{FP32, FP16} {
				for _, dir := range []PerfDirection{PerfRows, PerfCols} {
					for stride := 2; stride <= 4; stride++ {
						for off := 0; off < stride; off++ {
							for _, tc := range fusedCases {
								ep := tc.ep
								if tc.name != "none" && tc.name != "relu" {
									ep.Bias = bias
								}
								want := unfusedChain(Conv2DPerforated(x, w, p, dir, stride, off, prec), ep, prec)
								got := Conv2DPerforatedFused(x, w, p, dir, stride, off, prec, ep)
								requireSameBits(t, got, want, "groups=%d %v %v stride=%d off=%d %s", groups, prec, dir, stride, off, tc.name)
							}
						}
					}
				}
			}
		}
	})
}

// TestMatMulFP16SmallBatchMatchesReference pins the dense layer on a batch
// of one to three — too few rows to pack for, so B rows are streamed and
// under FP16 quantized a row at a time — against the quantized operands
// through the naive kernel and the standalone chain, for a weight that
// keeps its panels (which this batch does not use) and one that does not.
func TestMatMulFP16SmallBatchMatchesReference(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		g := tensor.NewRNG(31)
		for _, shape := range [][2]int{{5, 7}, {19, 8}, {33, 130}} {
			k, m := shape[0], shape[1]
			for n := 1; n < gemmMR; n++ {
				x := randTensor(g, n, k)
				x.Data()[g.Intn(n*k)] = 0 // the zero skip
				w := randTensor(g, k, m)
				bias := randTensor(g, m)
				ref := tensor.New(n, m)
				gemmRef(x.CloneFP16().Data(), w.CloneFP16().Data(), ref.Data(), n, k, m)
				ref.ToFP16()
				for _, cacheable := range []bool{false, true} {
					if cacheable {
						w.MarkCacheable()
					}
					for _, tc := range fusedCases {
						ep := tc.ep
						if tc.name != "none" && tc.name != "relu" {
							ep.Bias = bias
						}
						want := unfusedChain(ref.Clone(), ep, FP16)
						requireSameBits(t, MatMulFused(x, w, FP16, ep), want, "n=%d k=%d m=%d cacheable=%v %s", n, k, m, cacheable, tc.name)
					}
				}
			}
		}
	})
}

// TestMatMulFusedMatchesUnfused is the dense-layer analogue.
func TestMatMulFusedMatchesUnfused(t *testing.T) {
	g := tensor.NewRNG(19)
	for _, cacheable := range []bool{false, true} {
		for _, shape := range [][2]int{{5, 7}, {16, 33}} {
			k, m := shape[0], shape[1]
			x := randTensor(g, 6, k)
			w := randTensor(g, k, m)
			bias := randTensor(g, m)
			if cacheable {
				x.MarkCacheable()
				w.MarkCacheable()
			}
			for _, prec := range []Precision{FP32, FP16} {
				for _, tc := range fusedCases {
					ep := tc.ep
					if tc.name != "none" && tc.name != "relu" {
						ep.Bias = bias
					}
					want := unfusedChain(MatMul(x, w, prec), ep, prec)
					for pass := 0; pass < 2; pass++ {
						got := MatMulFused(x, w, prec, ep)
						wd, gd := want.Data(), got.Data()
						for i := range wd {
							if wd[i] != gd[i] {
								t.Fatalf("cacheable=%v k=%d m=%d prec=%v %s pass=%d: out[%d] = %v, unfused %v",
									cacheable, k, m, prec, tc.name, pass, i, gd[i], wd[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestConvColsCacheBitIdentical: a convolution over a cacheable input and
// weight must match the transient path bit for bit, cold and warm, both
// precisions, including grouped geometry. All the input may keep is its FP16
// copy: the packed columns are rebuilt from the input on every call, never
// memoized. The weight keeps its FP16 copy and the layer's lowering, which
// depends on shape only: a call on one image adds nothing to it.
func TestConvColsCacheBitIdentical(t *testing.T) {
	g := tensor.NewRNG(53)
	cases := []ConvParams{
		{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{Groups: 2, PadH: 1, PadW: 1},
	}
	for _, p := range cases {
		x := randTensor(g, 2, 4, 9, 9)
		w := randTensor(g, 8, 4/p.Norm().Groups, 3, 3)
		cx, cw := x.Clone().MarkCacheable(), w.Clone().MarkCacheable()
		for _, prec := range []Precision{FP32, FP16} {
			want := Conv2D(x, w, p, prec) // transient operands: never cached
			for pass := 0; pass < 2; pass++ {
				requireSameBits(t, Conv2D(cx, cw, p, prec), want, "p=%+v prec=%v pass=%d", p, prec, pass)
			}
		}
		xb, _ := cx.DerivedBytes()
		wb, _ := cw.DerivedBytes()
		if xb != int64(4*x.Elems()) || wb <= int64(4*w.Elems()) {
			t.Errorf("p=%+v: operands hold %d and %d bytes, want the input's quantized copy only (%d) and more than the weight's (%d)",
				p, xb, wb, 4*x.Elems(), 4*w.Elems())
		}
		one := randTensor(g, 1, 4, 9, 9)
		requireSameBits(t, Conv2D(one, cw, p, FP32), Conv2D(one, w, p, FP32), "p=%+v one image", p)
		if wb1, _ := cw.DerivedBytes(); wb1 != wb {
			t.Errorf("p=%+v: one image grew the weight's operands from %d to %d bytes", p, wb, wb1)
		}
	}
}

// TestSampledFilterCacheReused: a weight's kept sampled filters must hold
// SampleFilter's surviving values — the zeroed positions removed, nothing
// else changed — one per knob.
func TestSampledFilterCacheReused(t *testing.T) {
	g := tensor.NewRNG(23)
	w := randTensor(g, 8, 4, 3, 3).MarkCacheable()
	fvol := 4 * 3 * 3
	var wantBytes int64
	for _, knob := range [][2]int{{2, 0}, {2, 1}, {4, 1}} {
		samp := sampSpec{stride: knob[0], offset: knob[1]}
		var want []float32
		for i, v := range SampleFilter(w, samp.stride, samp.offset).Data() {
			if i%fvol%samp.stride != samp.offset {
				want = append(want, v)
			}
		}
		got := cachedSampledFilter(w, samp)
		if got == nil {
			t.Fatalf("%+v: no cached filter", samp)
		}
		if again := cachedSampledFilter(w, samp); got != again {
			t.Errorf("%+v: second lookup rebuilt", samp)
		}
		gd := got.Data()
		if len(gd) != len(want) || got.Dim(1) != samp.keptK(fvol) {
			t.Fatalf("%+v: %d elements (%v), want %d", samp, len(gd), got.Shape(), len(want))
		}
		for i := range want {
			if want[i] != gd[i] {
				t.Fatalf("%+v: [%d] = %v, want %v", samp, i, gd[i], want[i])
			}
		}
		wantBytes += int64(4 * len(want))
	}
	if b, _ := w.DerivedBytes(); b != wantBytes {
		t.Errorf("weight holds %d bytes, want %d (one filter per knob)", b, wantBytes)
	}
}
