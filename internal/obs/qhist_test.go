package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// splitmix64 is a tiny deterministic generator so the tests stay seeded
// without math/rand (banned by the detrand rule, source_test.go).
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 in [0,1).
func (s *splitmix64) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// sortedQuantile is the nearest-rank reference the histogram estimates
// are verified against.
func sortedQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestQHistogramQuantilesVsSortedReference drives seeded log-uniform
// latencies through the histogram and checks p50/p90/p99 against the
// exact sorted-sample quantiles. The log-linear bucket layout bounds the
// relative error at half a sub-bucket (~3.2%); the test allows 5%.
func TestQHistogramQuantilesVsSortedReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		rng := splitmix64(seed)
		h := NewQHist()
		const n = 20000
		vals := make([]float64, n)
		for i := range vals {
			// Latencies spread over [100µs, 10s), log-uniform: the shape a
			// tail-latency histogram actually sees.
			v := 1e-4 * math.Pow(1e5, rng.float64())
			vals[i] = v
			h.Observe(v)
		}
		sort.Float64s(vals)
		snap := h.Snapshot()
		if snap.Count() != n {
			t.Fatalf("seed %d: count = %d, want %d", seed, snap.Count(), n)
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			got := snap.Quantile(q)
			want := sortedQuantile(vals, q)
			if rel := math.Abs(got-want) / want; rel > 0.05 {
				t.Errorf("seed %d: q%.2f = %v, sorted reference %v (rel err %.3f)", seed, q, got, want, rel)
			}
		}
		if got, want := snap.Max(), vals[n-1]; got != want {
			t.Errorf("seed %d: max = %v, want exact %v", seed, got, want)
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		if math.Abs(snap.Sum()-sum) > 1e-6*sum {
			t.Errorf("seed %d: sum = %v, want %v", seed, snap.Sum(), sum)
		}
	}
}

// TestQHistogramObserveZeroAlloc pins the acceptance criterion: the
// steady-state Observe path must not allocate.
func TestQHistogramObserveZeroAlloc(t *testing.T) {
	h := NewQHist()
	h.Observe(0.001) // warm the shard pool for this P
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.00137) }); n != 0 {
		t.Errorf("Observe allocates %v per run, want 0", n)
	}
}

// TestQHistogramEdgeValues checks the underflow/overflow buckets and the
// empty snapshot.
func TestQHistogramEdgeValues(t *testing.T) {
	h := NewQHist()
	empty := h.Snapshot()
	if empty.Quantile(0.5) != 0 || empty.Max() != 0 || empty.Mean() != 0 {
		t.Errorf("empty snapshot: q50=%v max=%v mean=%v, want zeros",
			empty.Quantile(0.5), empty.Max(), empty.Mean())
	}
	for _, v := range []float64{0, -1, math.NaN(), 1e-300} {
		h.Observe(v) // all land in the underflow bucket without panicking
	}
	h.Observe(1e9) // overflow bucket
	snap := h.Snapshot()
	if snap.Count() != 5 {
		t.Fatalf("count = %d, want 5", snap.Count())
	}
	if got := snap.Quantile(1); got != 1e9 {
		t.Errorf("q100 = %v, want the exact observed max 1e9", got)
	}
}

// TestQHistogramMergeMatchesCombined checks that merging per-source
// snapshots is equivalent to observing everything in one histogram —
// the property the fleet-telemetry aggregation relies on.
func TestQHistogramMergeMatchesCombined(t *testing.T) {
	rng := splitmix64(99)
	a, b, both := NewQHist(), NewQHist(), NewQHist()
	for i := 0; i < 5000; i++ {
		v := 1e-3 * math.Pow(1e3, rng.float64())
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		both.Observe(v)
	}
	merged := a.Snapshot()
	merged.Merge(b.Snapshot())
	ref := both.Snapshot()
	if merged.Count() != ref.Count() {
		t.Fatalf("merged count %d != combined %d", merged.Count(), ref.Count())
	}
	if math.Abs(merged.Sum()-ref.Sum()) > 1e-9*ref.Sum() {
		t.Errorf("merged sum %v != combined %v", merged.Sum(), ref.Sum())
	}
	if merged.Max() != ref.Max() {
		t.Errorf("merged max %v != combined %v", merged.Max(), ref.Max())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if merged.Quantile(q) != ref.Quantile(q) {
			t.Errorf("q%.2f: merged %v != combined %v", q, merged.Quantile(q), ref.Quantile(q))
		}
	}
}

// TestQSnapshotJSONRoundTrip checks the wire encoding the fleet
// telemetry uses: a snapshot survives marshal/unmarshal with identical
// count, sum, max and quantiles, and the decoded copy still merges.
func TestQSnapshotJSONRoundTrip(t *testing.T) {
	rng := splitmix64(123)
	h := NewQHist()
	for i := 0; i < 3000; i++ {
		h.Observe(1e-3 * math.Pow(1e3, rng.float64()))
	}
	orig := h.Snapshot()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back QSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != orig.Count() || back.Max() != orig.Max() {
		t.Fatalf("round trip: count %d/%d max %v/%v", back.Count(), orig.Count(), back.Max(), orig.Max())
	}
	if math.Abs(back.Sum()-orig.Sum()) > 1e-9*orig.Sum() {
		t.Errorf("round trip sum %v != %v", back.Sum(), orig.Sum())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if back.Quantile(q) != orig.Quantile(q) {
			t.Errorf("round trip q%.2f %v != %v", q, back.Quantile(q), orig.Quantile(q))
		}
	}
	// A decoded empty snapshot must keep the merge identity.
	var empty QSnapshot
	if err := json.Unmarshal([]byte(`{"count":0,"sum":0,"max":0}`), &empty); err != nil {
		t.Fatal(err)
	}
	empty.Merge(&back)
	if empty.Max() != orig.Max() || empty.Count() != orig.Count() {
		t.Errorf("merge into decoded empty snapshot lost data: count %d max %v", empty.Count(), empty.Max())
	}
}

// TestQHistogramConcurrent hammers one histogram from many goroutines
// (run under -race) and checks nothing is lost.
func TestQHistogramConcurrent(t *testing.T) {
	h := NewQHist()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := splitmix64(w + 1)
			for i := 0; i < perWorker; i++ {
				h.Observe(1e-3 + rng.float64())
				if i%1000 == 0 {
					_ = h.Snapshot() // concurrent readers must be safe
				}
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count(); got != workers*perWorker {
		t.Errorf("count = %d, want %d", got, workers*perWorker)
	}
}

// TestQHistogramBucketLayout sanity-checks the index/bound mapping: a
// value always falls in (lower, upper] of its bucket.
func TestQHistogramBucketLayout(t *testing.T) {
	rng := splitmix64(5)
	for i := 0; i < 10000; i++ {
		v := math.Pow(10, rng.float64()*18-9) // [1e-9, 1e9)
		idx := qhistIndex(v)
		lo, hi := qhistLower(idx), qhistUpper(idx)
		if !(v > lo || idx == 0) || v > hi {
			t.Fatalf("value %v mapped to bucket %d (%v, %v]", v, idx, lo, hi)
		}
	}
	if qhistIndex(0) != 0 || qhistIndex(-5) != 0 {
		t.Error("non-positive values must land in the underflow bucket")
	}
	if qhistIndex(1e30) != qhistNBuckets-1 {
		t.Error("huge values must land in the overflow bucket")
	}
}

// FuzzQSnapshotJSON holds the decoder of the one histogram form other
// processes send us (POST /v1/telemetry, merged into the fleet view) to
// four properties: it never panics; what it accepts re-marshals to a
// snapshot that decodes equal; Quantile over it is monotone in q and
// stays between min(0, Max) and Max; and merging two accepted snapshots
// keeps Count equal to the sum of the buckets.
func FuzzQSnapshotJSON(f *testing.F) {
	h := NewQHist()
	for i := 1; i <= 64; i++ {
		h.Observe(float64(i) / 128)
	}
	h.ObserveExemplar(0.25, TraceID{1})
	live, err := json.Marshal(h.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	empty := `{"count":0,"sum":0,"max":0}`
	for _, seed := range []string{
		string(live),
		empty,
		`{"counts":{"700":-3},"count":-3,"sum":1,"max":1}`,                        // negative bucket
		`{"counts":{"700":2},"count":1000000,"sum":1,"max":1}`,                    // count disagrees
		`{"counts":{"1":9223372036854775807,"2":9223372036854775807},"count":-2}`, // bucket sum overflows
		`{"counts":{"0":1,"5000":2},"count":3,"sum":-1,"max":-1}`,                 // folded index, negative values
		`{"counts":{"-1":1},"count":1}`,                                           // negative index
		`{"counts":{"x":1},"count":1}`,                                            // non-numeric index
		`{"counts":{"600":1},"count":1,"sum":1,"max":1,"exemplars":{"9999":{"value":1,"trace_id":"00000000000000000000000000000001"}}}`,
		`[]`,
	} {
		f.Add(seed, empty)
		f.Add(seed, string(live))
	}
	sumBuckets := func(s *QSnapshot) (n int64) {
		for _, c := range s.counts {
			n += c
		}
		return n
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		var sa, sb QSnapshot
		if json.Unmarshal([]byte(a), &sa) != nil {
			return
		}
		if sa.count < 0 || sumBuckets(&sa) != sa.count {
			t.Fatalf("accepted %q with count %d over buckets holding %d", a, sa.count, sumBuckets(&sa))
		}
		again, err := json.Marshal(&sa)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-marshal it: %v", a, err)
		}
		var back QSnapshot
		if err := json.Unmarshal(again, &back); err != nil || !reflect.DeepEqual(&back, &sa) {
			t.Fatalf("%q re-marshals to %s, which decodes to %+v (err %v)", a, again, back.Summary(), err)
		}
		prev, lo := math.Inf(-1), math.Min(0, sa.Max())
		for q := 0.0; q <= 1; q += 1.0 / 64 {
			v := sa.Quantile(q)
			if v < prev || v < lo || v > sa.Max() {
				t.Fatalf("%q: Quantile(%v) = %v after %v, outside [%v, %v] or not monotone", a, q, v, prev, lo, sa.Max())
			}
			prev = v
		}
		if json.Unmarshal([]byte(b), &sb) != nil {
			return
		}
		sa.Merge(&sb)
		if sumBuckets(&sa) != sa.count {
			t.Fatalf("merge of %q and %q: count %d over buckets holding %d", a, b, sa.count, sumBuckets(&sa))
		}
	})
}
