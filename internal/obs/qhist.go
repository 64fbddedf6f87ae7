package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// QHistogram is a mergeable quantile histogram for hot-path latency
// accounting. Observations land in shard-per-P bucket arrays (a
// sync.Pool hands each P its own shard), so concurrent Observe calls
// almost never touch the same cache lines; each shard's buckets are
// plain atomic adds. The steady-state Observe path performs zero
// allocations and takes no locks.
//
// Buckets are log-linear (HdrHistogram style): one octave per power of
// two, each octave split into 16 linear sub-buckets, covering
// [2^-40, 2^24) — roughly a picosecond to months when values are
// seconds. The layout bounds the relative quantile-estimation error at
// 1/32 of the bucket width (midpoint reporting): ≤ ~3.2%.
//
// Snapshot produces an immutable QSnapshot that can be merged with
// snapshots of other histograms (e.g. per-edge telemetry folded into a
// fleet view) and queried for arbitrary quantiles.
type QHistogram struct {
	mu     sync.Mutex // guards shard-list growth only
	shards atomic.Pointer[[]*qshard]
	pool   sync.Pool
	// ex holds one exemplar per bucket (lazily allocated on the first
	// ObserveExemplar, so plain histograms pay nothing for the feature).
	ex atomic.Pointer[exemplarSlots]
}

// Exemplar ties one observed value to the trace that produced it
// (OpenMetrics exemplars), so a latency bucket names a request whose
// spans the flight recorder holds while they are recent.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID TraceID `json:"trace_id"`
}

// exemplarSlots stores the latest exemplar per bucket.
type exemplarSlots [qhistNBuckets]atomic.Pointer[Exemplar]

const (
	qhistSubBits = 4 // 16 linear sub-buckets per octave
	qhistSub     = 1 << qhistSubBits
	qhistMinExp  = -40 // smallest octave: [2^-40, 2^-39)
	qhistMaxExp  = 24  // values ≥ 2^24 overflow
	qhistOctaves = qhistMaxExp - qhistMinExp
	// Index 0 is the underflow bucket (v < 2^minExp, including zero and
	// negatives); the last index is the overflow bucket.
	qhistNBuckets = qhistOctaves*qhistSub + 2
)

// qshard is one P's private slice of the histogram. The trailing pad
// keeps two shards from sharing a cache line.
type qshard struct {
	buckets [qhistNBuckets]atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	maxBits atomic.Uint64 // float64 bits of the largest observation
	_       [64]byte
}

// NewQHist returns an unregistered quantile histogram, for callers that
// manage their own lifecycle (e.g. one histogram per runtime
// configuration). Registered, named histograms come from
// Registry.QHistogram / NewQHistogram.
func NewQHist() *QHistogram {
	h := &QHistogram{}
	empty := make([]*qshard, 0, 8)
	h.shards.Store(&empty)
	h.pool.New = func() any { return h.newShard() }
	return h
}

func (h *QHistogram) newShard() *qshard {
	s := &qshard{}
	s.maxBits.Store(math.Float64bits(math.Inf(-1)))
	h.mu.Lock()
	old := *h.shards.Load()
	next := make([]*qshard, len(old)+1)
	copy(next, old)
	next[len(old)] = s
	h.shards.Store(&next)
	h.mu.Unlock()
	return s
}

// qhistIndex maps a value to its bucket index.
func qhistIndex(v float64) int {
	if !(v >= math.Ldexp(1, qhistMinExp)) { // catches NaN, ≤0 and tiny
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
	e := exp - 1               // v = (2·frac)·2^e, 2·frac ∈ [1, 2)
	if e >= qhistMaxExp {
		return qhistNBuckets - 1
	}
	sub := int((frac*2 - 1) * qhistSub)
	return 1 + (e-qhistMinExp)*qhistSub + sub
}

// qhistUpper returns the upper bound of bucket i (the lower bound of
// bucket 0 is -inf; the upper bound of the overflow bucket is +inf).
func qhistUpper(i int) float64 {
	switch {
	case i <= 0:
		return math.Ldexp(1, qhistMinExp)
	case i >= qhistNBuckets-1:
		return math.Inf(1)
	}
	i--
	e := qhistMinExp + i/qhistSub
	sub := i % qhistSub
	return math.Ldexp(1+float64(sub+1)/qhistSub, e)
}

// qhistLower returns the lower bound of bucket i: the upper bound of the
// bucket below it.
func qhistLower(i int) float64 {
	if i <= 0 {
		return 0
	}
	return qhistUpper(i - 1)
}

// Observe records one value. Safe for concurrent use; zero allocations
// and no locks on the steady-state path.
func (h *QHistogram) Observe(v float64) {
	s := h.pool.Get().(*qshard)
	s.buckets[qhistIndex(v)].Add(1)
	addFloat(&s.sumBits, v)
	for {
		old := s.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if s.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	h.pool.Put(s)
}

// ObserveExemplar records one value and stores it as the exemplar of
// its bucket, tagged with the trace that produced it. A zero trace ID
// degrades to a plain Observe.
func (h *QHistogram) ObserveExemplar(v float64, tid TraceID) {
	h.Observe(v)
	if tid.IsZero() {
		return
	}
	slots := h.ex.Load()
	if slots == nil {
		slots = &exemplarSlots{}
		if !h.ex.CompareAndSwap(nil, slots) {
			slots = h.ex.Load()
		}
	}
	slots[qhistIndex(v)].Store(&Exemplar{Value: v, TraceID: tid})
}

// Count returns the total number of observations.
func (h *QHistogram) Count() int64 { return h.Snapshot().count }

// Snapshot merges all shards into an immutable point-in-time view.
func (h *QHistogram) Snapshot() *QSnapshot {
	snap := &QSnapshot{max: math.Inf(-1)}
	for _, s := range *h.shards.Load() {
		snap.sum += math.Float64frombits(s.sumBits.Load())
		if m := math.Float64frombits(s.maxBits.Load()); m > snap.max {
			snap.max = m
		}
		for i := range s.buckets {
			n := s.buckets[i].Load()
			snap.counts[i] += n
			snap.count += n
		}
	}
	if slots := h.ex.Load(); slots != nil {
		for i := range slots {
			if e := slots[i].Load(); e != nil {
				if snap.exemplars == nil {
					snap.exemplars = make(map[int]Exemplar)
				}
				snap.exemplars[i] = *e
			}
		}
	}
	return snap
}

// QSnapshot is a merged, immutable view of one or more QHistograms.
type QSnapshot struct {
	counts    [qhistNBuckets]int64
	count     int64
	sum       float64
	max       float64
	exemplars map[int]Exemplar // bucket index → latest exemplar
}

// Merge folds another snapshot into this one (fleet aggregation).
// Exemplars are adopted for buckets that have none yet.
func (s *QSnapshot) Merge(o *QSnapshot) {
	if o == nil {
		return
	}
	s.count += o.count
	s.sum += o.sum
	if o.max > s.max {
		s.max = o.max
	}
	for i := range s.counts {
		s.counts[i] += o.counts[i]
	}
	for i, e := range o.exemplars {
		if _, ok := s.exemplars[i]; !ok {
			if s.exemplars == nil {
				s.exemplars = make(map[int]Exemplar)
			}
			s.exemplars[i] = e
		}
	}
}

// qsnapshotJSON is the wire form of a QSnapshot: the bucket array is
// sparse-encoded (index → count) since latency distributions touch only
// a handful of the 1026 buckets.
type qsnapshotJSON struct {
	Counts    map[int]int64    `json:"counts,omitempty"`
	Count     int64            `json:"count"`
	Sum       float64          `json:"sum"`
	Max       float64          `json:"max"`
	Exemplars map[int]Exemplar `json:"exemplars,omitempty"`
}

// MarshalJSON encodes the snapshot for shipping (e.g. per-edge telemetry
// uploads); the result round-trips through UnmarshalJSON with identical
// counts, sum, max and quantiles.
func (s *QSnapshot) MarshalJSON() ([]byte, error) {
	j := qsnapshotJSON{Count: s.count, Sum: s.sum, Max: s.Max(), Exemplars: s.exemplars}
	for i, n := range s.counts {
		if n != 0 {
			if j.Counts == nil {
				j.Counts = make(map[int]int64)
			}
			j.Counts[i] = n
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes a snapshot produced by MarshalJSON. Bucket
// indices outside the compiled-in layout are folded into the overflow
// bucket rather than dropped. Snapshots arrive from other processes
// (POST /v1/telemetry) and are merged into fleet histograms, so one whose
// buckets are negative or do not add up to its count is rejected.
func (s *QSnapshot) UnmarshalJSON(data []byte) error {
	var j qsnapshotJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = QSnapshot{count: j.Count, sum: j.Sum, max: j.Max}
	if j.Count == 0 {
		s.max = math.Inf(-1) // the empty-snapshot sentinel Merge relies on
	}
	var total int64
	for i, n := range j.Counts {
		if i < 0 || n < 0 || total+n < total {
			return fmt.Errorf("obs: bad qsnapshot bucket %d: count %d", i, n)
		}
		s.counts[min(i, qhistNBuckets-1)] += n
		total += n
	}
	if total != j.Count {
		return fmt.Errorf("obs: qsnapshot count %d but its buckets hold %d", j.Count, total)
	}
	for i, e := range j.Exemplars {
		if i < 0 {
			return fmt.Errorf("obs: bad qsnapshot exemplar index %d", i)
		}
		if s.exemplars == nil {
			s.exemplars = make(map[int]Exemplar)
		}
		s.exemplars[min(i, qhistNBuckets-1)] = e
	}
	return nil
}

// Count returns the number of observations in the snapshot.
func (s *QSnapshot) Count() int64 { return s.count }

// Sum returns the sum of all observations.
func (s *QSnapshot) Sum() float64 { return s.sum }

// Max returns the largest observation (0 when empty).
func (s *QSnapshot) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Mean returns the arithmetic mean (0 when empty).
func (s *QSnapshot) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Quantile estimates the q-quantile (q in [0,1]) as the midpoint of the
// bucket containing the nearest rank, clamped to the observed maximum.
// Returns 0 when the snapshot is empty.
func (s *QSnapshot) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank on the merged counts: rank r in [1, count].
	rank := int64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < qhistNBuckets; i++ {
		cum += s.counts[i]
		if cum >= rank {
			var est float64
			switch {
			case i == 0:
				est = qhistUpper(0)
			case i == qhistNBuckets-1:
				est = s.max
			default:
				est = (qhistLower(i) + qhistUpper(i)) / 2
			}
			if est > s.max {
				est = s.max
			}
			return est
		}
	}
	return s.max
}

// P50, P90 and P99 are the conventional latency quantiles.
func (s *QSnapshot) P50() float64 { return s.Quantile(0.50) }
func (s *QSnapshot) P90() float64 { return s.Quantile(0.90) }
func (s *QSnapshot) P99() float64 { return s.Quantile(0.99) }

// QSummary is the exported (JSON) form of a quantile histogram, which
// health reports and fleet statistics carry.
type QSummary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summary condenses the snapshot into its exported form.
func (s *QSnapshot) Summary() QSummary {
	return QSummary{Count: s.count, Sum: s.sum, Max: s.Max(), P50: s.P50(), P90: s.P90(), P99: s.P99()}
}

// QHistogram returns (creating if needed) the named quantile histogram.
func (r *Registry) QHistogram(name string) *QHistogram {
	return lookup(r, name, NewQHist)
}

// NewQHistogram returns the named quantile histogram in the Default
// registry.
func NewQHistogram(name string) *QHistogram { return Default.QHistogram(name) }

// QHistVec is a family of quantile histograms keyed by a label value
// (e.g. HTTP endpoint).
type QHistVec = family[*QHistogram]

// QHistVec returns (creating if needed) the named histogram family.
func (r *Registry) QHistVec(name string) *QHistVec {
	return lookup(r, name, func() *QHistVec { return newFamily(NewQHist) })
}

// NewQHistVec returns the named histogram family in the Default registry.
func NewQHistVec(name string) *QHistVec { return Default.QHistVec(name) }
