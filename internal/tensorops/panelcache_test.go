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

// TestPackCacheHitsAndInvalidate drives a private cache instance through
// miss → hit → invalidate → miss and checks the byte accounting.
func TestPackCacheHitsAndInvalidate(t *testing.T) {
	c := NewPackCache(1 << 20)
	g := tensor.NewRNG(3)
	w := randTensor(g, 8, 8).MarkCacheable()

	q1, ok := c.cachedQuantized(w)
	if !ok {
		t.Fatal("cacheable tensor rejected")
	}
	q2, _ := c.cachedQuantized(w)
	if &q1[0] != &q2[0] {
		t.Error("second lookup rebuilt instead of hitting")
	}
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if c.Bytes() != int64(4*w.Elems()) {
		t.Errorf("bytes = %d, want %d", c.Bytes(), 4*w.Elems())
	}

	id, _, _ := w.CacheKey()
	if dropped := c.Invalidate(id); dropped != 1 {
		t.Errorf("Invalidate dropped %d entries, want 1", dropped)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("after invalidate: %d entries / %d bytes resident", c.Len(), c.Bytes())
	}

	// A generation bump (in-place mutation) must miss even without an
	// invalidation sweep.
	q3, _ := c.cachedQuantized(w)
	w.Data()[0] += 1
	w.InvalidateCache()
	q4, _ := c.cachedQuantized(w)
	if &q3[0] == &q4[0] {
		t.Error("stale entry returned after generation bump")
	}
}

// TestPackCacheUncacheableTensor: tensors never marked cacheable must not
// enter the cache.
func TestPackCacheUncacheableTensor(t *testing.T) {
	c := NewPackCache(1 << 20)
	g := tensor.NewRNG(5)
	w := randTensor(g, 8, 8)
	if _, ok := c.cachedQuantized(w); ok {
		t.Error("unmarked tensor was cached")
	}
	if c.cachedPrepackedB(w, 8, 8, FP32) != nil {
		t.Error("unmarked tensor produced prepacked panels")
	}
	if c.Len() != 0 {
		t.Errorf("%d entries resident", c.Len())
	}
}

// TestPackCacheEviction inserts under a budget that holds exactly two
// quantized copies and checks LRU order: the least-recently-touched entry
// goes first, and the byte budget always holds.
func TestPackCacheEviction(t *testing.T) {
	g := tensor.NewRNG(7)
	const elems = 64
	c := NewPackCache(2 * 4 * elems) // room for exactly two entries
	ws := make([]*tensor.Tensor, 3)
	for i := range ws {
		ws[i] = randTensor(g, elems).MarkCacheable()
	}
	c.cachedQuantized(ws[0])
	c.cachedQuantized(ws[1])
	c.cachedQuantized(ws[0]) // touch 0 so 1 is LRU
	c.cachedQuantized(ws[2]) // evicts 1
	if _, _, ev := c.Stats(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if c.Bytes() > c.maxBytes {
		t.Fatalf("resident %d bytes over budget %d", c.Bytes(), c.maxBytes)
	}
	hits0, _, _ := c.Stats()
	c.cachedQuantized(ws[0]) // still resident
	c.cachedQuantized(ws[1]) // evicted: must rebuild
	hits1, _, ev := c.Stats()
	if hits1 != hits0+1 {
		t.Errorf("hit accounting off: %d -> %d (want one hit for ws[0], a miss for ws[1])", hits0, hits1)
	}
	if ev != 2 {
		t.Errorf("evictions = %d, want 2 (re-inserting ws[1] evicts again)", ev)
	}

	// An entry larger than the whole budget is returned but never resident.
	big := randTensor(g, 10*elems).MarkCacheable()
	if q, ok := c.cachedQuantized(big); !ok || len(q) != big.Elems() {
		t.Fatal("oversized entry not computed")
	}
	if c.Bytes() > c.maxBytes {
		t.Fatalf("oversized entry resident: %d bytes", c.Bytes())
	}
}

// TestPackCacheConcurrent hammers one cache with concurrent lookups and
// invalidations; run under -race this pins the locking discipline, and the
// returned slices must always hold the current generation's values.
func TestPackCacheConcurrent(t *testing.T) {
	c := NewPackCache(1 << 20)
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
					id, _, _ := tn.CacheKey()
					c.Invalidate(id)
				case w%2 == 0:
					if q, ok := c.cachedQuantized(tn); !ok || len(q) != tn.Elems() {
						t.Error("bad quantized lookup")
						return
					}
				default:
					if p := c.cachedPrepackedB(tn, 32, 32, FP32); p == nil || p.np != 32/gemmNR {
						t.Error("bad prepacked lookup")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses, _ := c.Stats()
	if hits+misses == 0 {
		t.Error("no lookups recorded")
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
// precisions, including grouped geometry — and all it may leave in the
// cache is the FP16 copy of each operand: the packed columns are rebuilt
// from the input on every call, never memoized.
func TestConvColsCacheBitIdentical(t *testing.T) {
	g := tensor.NewRNG(53)
	cases := []ConvParams{
		{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{Groups: 2, PadH: 1, PadW: 1},
	}
	shared := defaultPackCache
	defer func() { defaultPackCache = shared }()
	for _, p := range cases {
		x := randTensor(g, 2, 4, 9, 9)
		w := randTensor(g, 8, 4/p.Norm().Groups, 3, 3)
		cx, cw := x.Clone().MarkCacheable(), w.Clone().MarkCacheable()
		defaultPackCache = NewPackCache(1 << 20)
		for _, prec := range []Precision{FP32, FP16} {
			want := Conv2D(x, w, p, prec) // transient operands: never cached
			for pass := 0; pass < 2; pass++ {
				requireSameBits(t, Conv2D(cx, cw, p, prec), want, "p=%+v prec=%v pass=%d", p, prec, pass)
			}
		}
		c := defaultPackCache
		if wantBytes := int64(4 * (x.Elems() + w.Elems())); c.Len() != 2 || c.Bytes() != wantBytes {
			t.Errorf("p=%+v: cache holds %d entries / %d bytes, want the 2 quantized copies / %d bytes",
				p, c.Len(), c.Bytes(), wantBytes)
		}
	}
}

// TestSampledFilterCacheReused: the sampled-filter cache must return
// SampleFilter's surviving values — the zeroed positions removed, nothing
// else changed — and key distinct knobs separately.
func TestSampledFilterCacheReused(t *testing.T) {
	g := tensor.NewRNG(23)
	w := randTensor(g, 8, 4, 3, 3).MarkCacheable()
	fvol := 4 * 3 * 3
	c := NewPackCache(1 << 20)
	for _, knob := range [][2]int{{2, 0}, {2, 1}, {4, 1}} {
		samp := sampSpec{stride: knob[0], offset: knob[1]}
		var want []float32
		for i, v := range SampleFilter(w, samp.stride, samp.offset).Data() {
			if i%fvol%samp.stride != samp.offset {
				want = append(want, v)
			}
		}
		got := c.cachedSampledFilter(w, samp)
		if got == nil {
			t.Fatalf("%+v: no cached filter", samp)
		}
		if again := c.cachedSampledFilter(w, samp); got != again {
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
	}
	if c.Len() != 3 {
		t.Errorf("%d entries, want 3 (one per knob)", c.Len())
	}
}
