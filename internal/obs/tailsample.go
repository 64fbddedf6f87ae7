package obs

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"
)

// Tail-based sampling: the keep/drop decision for a trace is made when
// the request *finishes*, when its latency, status, and overlap with
// tuner events are known — so the sampler retains exactly the traces
// worth debugging (slow, errored, or concurrent with a config switch /
// drift alarm) plus a deterministic probabilistic floor for baseline
// coverage. Memory is bounded on both sides: pending (undecided) traces
// are capped with FIFO eviction, and kept traces live in a ring.

// TailSamplerOptions configures a TailSampler. The zero value takes all
// defaults.
type TailSamplerOptions struct {
	// Seed fixes the probabilistic-floor decisions: the same seed and
	// trace IDs reproduce the same kept set bit-for-bit.
	Seed int64
	// Floor is the probability of keeping an otherwise-uninteresting
	// trace (default 0.01; negative disables the floor).
	Floor float64
}

// The sampler's memory bounds.
const (
	samplerMaxPending = 512 // undecided traces; the oldest is evicted when full
	samplerMaxSpans   = 64  // spans buffered per trace; excess marks it truncated
	samplerKeep       = 256 // kept traces, ring semantics
)

// Verdict is what the caller knows about a finished trace.
type Verdict struct {
	// Slow: total latency exceeded the running quantile threshold.
	Slow bool
	// Errored: the request ended 429/503/504/5xx or expired.
	Errored bool
	// Eventful: a tuner config switch or drift alarm fired while the
	// request was in flight.
	Eventful bool
}

// KeptTrace is one retained trace with the reason it was kept.
type KeptTrace struct {
	TraceID   TraceID      `json:"trace_id"`
	Reason    string       `json:"reason"` // "error", "slow", "event", or "floor"
	Spans     []SpanRecord `json:"spans"`
	Truncated bool         `json:"truncated,omitempty"`
}

type pendingTrace struct {
	spans     []SpanRecord
	truncated bool
}

// TailSampler buffers completed spans per trace (as a SpanSink) and
// decides retention at trace completion. All methods are goroutine-safe
// and nil-safe.
type TailSampler struct {
	seed       uint64
	floorBits  uint64
	maxPending int
	kept       ring[KeptTrace]

	mu      sync.Mutex
	pending map[TraceID]*pendingTrace
	order   []TraceID // FIFO arrival order for eviction (may hold stale IDs)
	seen    int64
	nKept   int64
	evicted int64
}

// NewTailSampler builds a sampler from o.
func NewTailSampler(o TailSamplerOptions) *TailSampler {
	if math.Float64bits(o.Floor) == 0 {
		o.Floor = 0.01
	}
	ts := &TailSampler{
		seed:       uint64(o.Seed),
		maxPending: samplerMaxPending,
		pending:    make(map[TraceID]*pendingTrace),
		kept:       ring[KeptTrace]{max: samplerKeep},
	}
	if o.Floor > 0 {
		if o.Floor >= 1 {
			ts.floorBits = math.MaxUint64
		} else {
			ts.floorBits = uint64(o.Floor * float64(1<<63) * 2)
		}
	}
	return ts
}

// OnSpanEnd buffers a completed span under its trace (SpanSink). A span
// carrying links (a coalesced batch span) is also delivered — together
// with the spans already buffered under its own trace, i.e. the batch's
// children — to every linked trace, so a kept member trace contains the
// shared batch/execute/tuner spans.
func (ts *TailSampler) OnSpanEnd(rec SpanRecord) {
	if ts == nil || rec.TraceID.IsZero() {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.buffer(rec.TraceID, rec)
	if len(rec.Links) == 0 {
		return
	}
	own := ts.pending[rec.TraceID] // buffer has just made sure it exists
	for _, tid := range rec.Links {
		if tid == rec.TraceID || tid.IsZero() {
			continue
		}
		for _, sub := range own.spans {
			ts.buffer(tid, sub)
		}
	}
}

// buffer appends rec under tid; caller holds ts.mu.
func (ts *TailSampler) buffer(tid TraceID, rec SpanRecord) {
	pt := ts.pending[tid]
	if pt == nil {
		if len(ts.pending) >= ts.maxPending {
			ts.evictOldest()
		}
		pt = &pendingTrace{}
		ts.pending[tid] = pt
		ts.order = append(ts.order, tid)
		if len(ts.order) > 4*ts.maxPending {
			ts.compactOrder()
		}
	}
	if len(pt.spans) >= samplerMaxSpans {
		pt.truncated = true
		return
	}
	pt.spans = append(pt.spans, rec)
}

// evictOldest drops the oldest still-pending trace; caller holds ts.mu.
func (ts *TailSampler) evictOldest() {
	for len(ts.order) > 0 {
		tid := ts.order[0]
		ts.order = ts.order[1:]
		if _, ok := ts.pending[tid]; ok {
			delete(ts.pending, tid)
			ts.evicted++
			return
		}
	}
}

// compactOrder drops IDs already finished or evicted; caller holds ts.mu.
func (ts *TailSampler) compactOrder() {
	live := ts.order[:0]
	for _, tid := range ts.order {
		if _, ok := ts.pending[tid]; ok {
			live = append(live, tid)
		}
	}
	ts.order = live
}

// floorKeep is the deterministic probabilistic floor: a splitmix64 hash
// of seed and trace ID against the Floor threshold. Independent of
// arrival order and scheduling, so a fixed seed reproduces decisions.
func (ts *TailSampler) floorKeep(tid TraceID) bool {
	if ts.floorBits == 0 {
		return false
	}
	h := mix64(ts.seed ^ binary.BigEndian.Uint64(tid[:8]) ^ binary.BigEndian.Uint64(tid[8:]))
	return h < ts.floorBits
}

// Finish decides retention for a completed trace. It returns whether the
// trace was kept and the first matching reason
// (error > slow > event > floor).
func (ts *TailSampler) Finish(tid TraceID, v Verdict) (kept bool, reason string) {
	if ts == nil || tid.IsZero() {
		return false, ""
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.seen++
	pt := ts.pending[tid]
	delete(ts.pending, tid)
	switch {
	case v.Errored:
		reason = "error"
	case v.Slow:
		reason = "slow"
	case v.Eventful:
		reason = "event"
	case ts.floorKeep(tid):
		reason = "floor"
	default:
		return false, ""
	}
	kt := KeptTrace{TraceID: tid, Reason: reason}
	if pt != nil {
		kt.Spans = pt.spans
		kt.Truncated = pt.truncated
		sort.SliceStable(kt.Spans, func(i, j int) bool { return kt.Spans[i].Start < kt.Spans[j].Start })
	}
	ts.kept.push(kt)
	ts.nKept++
	return true, reason
}

// Drop discards a pending trace without a retention decision (e.g. an
// abandoned request).
func (ts *TailSampler) Drop(tid TraceID) {
	if ts == nil || tid.IsZero() {
		return
	}
	ts.mu.Lock()
	delete(ts.pending, tid)
	ts.mu.Unlock()
}

// PendingCount returns the number of undecided traces currently
// buffered. In a healthy serve loop it tracks the requests in flight:
// batch traces are dropped after their linked fan-out, so only traces
// awaiting a Finish verdict occupy slots.
func (ts *TailSampler) PendingCount() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.pending)
}

// Kept returns a copy of the retained traces, oldest decision first.
func (ts *TailSampler) Kept() []KeptTrace {
	if ts == nil {
		return nil
	}
	return ts.kept.items()
}

// Stats returns (finished, kept, evicted-pending) counters.
func (ts *TailSampler) Stats() (seen, kept, evicted int64) {
	if ts == nil {
		return 0, 0, 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.seen, ts.nKept, ts.evicted
}
