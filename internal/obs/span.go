package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// SpanSink receives every completed span record; the in-memory ring, the
// JSONL export, the flight recorder and the tail sampler are all sinks.
// Sinks must be goroutine-safe and treat the record's Attrs and Links as
// read-only: every sink of a tracer is handed the same ones.
type SpanSink interface {
	OnSpanEnd(SpanRecord)
}

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Writer, when non-nil, receives one JSON line per completed span
	// (the JSONL trace export). The tracer serializes writes.
	Writer io.Writer
	// KeepInMemory bounds the number of completed spans retained for
	// Records/Summarize (default 4096; 0 takes the default, negative
	// disables retention). Retention is a ring: when full, the oldest
	// record is overwritten, so a long run keeps the most recent spans.
	KeepInMemory int
	// IDSeed seeds trace/span ID generation (splitmix64 sequence). Zero
	// derives a seed from the process start time; fix it for
	// reproducible IDs in tests and smoke runs.
	IDSeed int64
	// Sinks receive every completed span record (e.g. a TailSampler).
	Sinks []SpanSink
}

// graphExecDetail is how many graph executions per tracer record per-node
// child spans before degrading to one span per execution: tuning runs
// execute the graph thousands of times, and traces must stay readable.
const graphExecDetail = 16

// Tracer records hierarchical spans. All methods are goroutine-safe.
type Tracer struct {
	ids   *IDSource
	sinks []SpanSink
	ring  *ringSink  // answers Records and Dropped; nil when retention is off
	jsonl *jsonlSink // answers Err; nil without a Writer

	nextID       atomic.Int64
	detailBudget atomic.Int64
}

// NewTracer builds a tracer. A zero TracerOptions gives an in-memory-only
// tracer suitable for tests and CLI tree summaries. Completed spans go,
// in order, to the ring (KeepInMemory), the JSONL export (Writer), the
// process-wide flight recorder, then o.Sinks.
func NewTracer(o TracerOptions) *Tracer {
	if o.KeepInMemory == 0 {
		o.KeepInMemory = 4096
	}
	if o.IDSeed == 0 {
		o.IDSeed = clockBase.UnixNano()
	}
	t := &Tracer{ids: NewIDSource(o.IDSeed)}
	if o.KeepInMemory > 0 {
		t.ring = &ringSink{ring[SpanRecord]{max: o.KeepInMemory}}
		t.sinks = append(t.sinks, t.ring)
	}
	if o.Writer != nil {
		t.jsonl = &jsonlSink{w: o.Writer}
		t.sinks = append(t.sinks, t.jsonl)
	}
	t.sinks = append(t.sinks, Flight())
	t.sinks = append(t.sinks, o.Sinks...)
	t.detailBudget.Store(graphExecDetail)
	return t
}

// Start opens a root span (fresh trace ID) on this tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, 0, TraceID{}, SpanID{})
}

// newSpan is the single span constructor: a zero trace ID mints a fresh
// trace (root span); a non-zero one continues it with parentSID as the
// parent span (local child or remote continuation).
func (t *Tracer) newSpan(name string, parent int64, trace TraceID, parentSID SpanID) *Span {
	if trace.IsZero() {
		trace = t.ids.TraceID()
	}
	return &Span{
		tr:     t,
		id:     t.nextID.Add(1),
		parent: parent,
		name:   name,
		start:  Now(),
		trace:  trace,
		sid:    t.ids.SpanID(),
		psid:   parentSID,
	}
}

// Records returns a copy of the retained completed spans, oldest first.
func (t *Tracer) Records() []SpanRecord {
	if t == nil || t.ring == nil {
		return nil
	}
	return t.ring.items()
}

// Dropped returns how many completed spans have been overwritten because
// the in-memory retention ring was full.
func (t *Tracer) Dropped() int64 {
	if t == nil || t.ring == nil {
		return 0
	}
	return t.ring.dropped.Load()
}

// Err returns the first JSONL write error, if any.
func (t *Tracer) Err() error {
	if t == nil || t.jsonl == nil {
		return nil
	}
	t.jsonl.mu.Lock()
	defer t.jsonl.mu.Unlock()
	return t.jsonl.err
}

func (t *Tracer) finish(rec SpanRecord) {
	for _, s := range t.sinks {
		s.OnSpanEnd(rec)
	}
}

// ringSink retains the most recent spans, so a long-lived process shows
// current activity rather than its first few thousand spans.
type ringSink struct{ ring[SpanRecord] }

func (s *ringSink) OnSpanEnd(rec SpanRecord) { s.push(rec) }

// jsonlSink writes one JSON line per span. Marshalling happens before
// the lock is taken, so concurrent span ends serialize only on the
// write itself; the first error is kept for Tracer.Err.
type jsonlSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

func (s *jsonlSink) OnSpanEnd(rec SpanRecord) {
	line, err := json.Marshal(rec)
	s.mu.Lock()
	if err == nil {
		_, err = s.w.Write(append(line, '\n'))
	}
	if err != nil && s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Span is one timed, attributed, nestable region of work. A nil *Span is
// the valid no-op span; every method tolerates it.
type Span struct {
	tr     *Tracer
	id     int64
	parent int64
	name   string
	start  int64
	trace  TraceID
	sid    SpanID
	psid   SpanID
	attrs  map[string]any
	links  []TraceID
	mu     sync.Mutex
	ended  bool
}

// Child opens a sub-span sharing s's trace ID. On a nil span it returns
// nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(name, s.id, s.trace, s.sid)
}

// With attaches an attribute and returns the span for chaining. No-op on
// nil spans and on ended ones: End hands the attribute map to the
// record, which the sinks then share.
func (s *Span) With(key string, val any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if !s.ended {
		if s.attrs == nil {
			s.attrs = make(map[string]any, 4)
		}
		s.attrs[key] = val
	}
	s.mu.Unlock()
	return s
}

// Link attaches another trace's ID to this span (OTel-style span link).
// A coalesced batch span links every member request's trace, tying the
// shared execution back to each caller. No-op on nil or ended spans and
// on zero IDs.
func (s *Span) Link(tid TraceID) *Span {
	if s == nil || tid.IsZero() {
		return s
	}
	s.mu.Lock()
	if !s.ended {
		s.links = append(s.links, tid)
	}
	s.mu.Unlock()
	return s
}

// Context returns the span's propagable identity (zero on nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.trace, SpanID: s.sid}
}

// TraceID returns the span's trace ID (zero on nil spans).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// AcquireDetail consumes one unit of the tracer's graph-detail budget
// (false on nil spans, so callers can gate per-node children on it).
func (s *Span) AcquireDetail() bool {
	if s == nil {
		return false
	}
	return s.tr.detailBudget.Add(-1) >= 0
}

// End closes the span, exporting it to the tracer's sinks. Ending twice
// is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	end := Now()
	rec := SpanRecord{
		ID:           s.id,
		Parent:       s.parent,
		Name:         s.name,
		Start:        s.start,
		End:          end,
		Dur:          end - s.start,
		TraceID:      s.trace,
		SpanID:       s.sid,
		ParentSpanID: s.psid,
		Links:        s.links,
		Attrs:        s.attrs,
	}
	s.mu.Unlock()
	s.tr.finish(rec)
}

// SpanRecord is the exported form of a completed span. Start and End are
// process-clock nanoseconds (obs.Now, as flight-recorder events are), Dur
// their difference; Attrs and Links are shared by every sink: read-only.
// ID/Parent are the
// process-local int64 tree used by BuildTree; TraceID/SpanID/
// ParentSpanID are the propagable identity (hex in JSON) used to stitch
// cross-process traces.
type SpanRecord struct {
	ID           int64          `json:"id"`
	Parent       int64          `json:"parent,omitempty"`
	Name         string         `json:"name"`
	Start        int64          `json:"start_ns"`
	End          int64          `json:"end_ns"`
	Dur          int64          `json:"dur_ns"`
	TraceID      TraceID        `json:"trace_id"`
	SpanID       SpanID         `json:"span_id"`
	ParentSpanID SpanID         `json:"parent_span_id"`
	Links        []TraceID      `json:"links,omitempty"`
	Attrs        map[string]any `json:"attrs,omitempty"`
}

func (r SpanRecord) String() string {
	return fmt.Sprintf("%s (%.3fms)", r.Name, float64(r.Dur)/1e6)
}
