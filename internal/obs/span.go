package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// SpanSink receives every completed span record; the JSONL export and the
// flight recorder, the one in-memory span store, are both sinks.
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
	// KeepInMemory does nothing: the flight recorder is the one in-memory
	// span store.
	//
	// Deprecated: benchmark/serve.go and benchmark/micro.go still set it;
	// delete it with the next benchmark change.
	KeepInMemory int
	// IDSeed seeds trace/span ID generation (splitmix64 sequence). Zero
	// draws a stream of the tracer's own from the process start time and
	// a count of unseeded tracers; fix it for reproducible IDs.
	IDSeed int64
	// Sinks receive every completed span record after the built-in ones.
	Sinks []SpanSink
}

// graphExecDetail is how many graph executions per tracer record per-node
// child spans before degrading to one span per execution: tuning runs
// execute the graph thousands of times, and traces must stay readable.
const graphExecDetail = 16

// unseededTracers counts the tracers built without an IDSeed.
var unseededTracers atomic.Uint64

// Tracer records hierarchical spans. All methods are goroutine-safe.
type Tracer struct {
	ids   *idSource
	sinks []SpanSink
	jsonl *jsonlSink // answers Err; nil without a Writer

	detailBudget atomic.Int64
}

// NewTracer builds a tracer. With a zero TracerOptions its spans reach the
// flight recorder alone. Completed spans go, in order, to the JSONL export
// (Writer), the process-wide flight recorder, then o.Sinks.
func NewTracer(o TracerOptions) *Tracer {
	if o.IDSeed == 0 {
		o.IDSeed = int64(mix64(uint64(clockBase.UnixNano()) + unseededTracers.Add(1)))
	}
	t := &Tracer{ids: newIDSource(o.IDSeed)}
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
	return t.newSpan(name, TraceID{}, SpanID{})
}

// openSpans counts the spans begun and not yet ended, on every tracer.
var openSpans atomic.Int64

// OpenSpans returns how many spans have been started and not ended. The
// test binaries that open spans require it to be zero when they exit
// (internal/leakcheck).
func OpenSpans() int64 { return openSpans.Load() }

// newSpan is the single span constructor: a zero trace ID mints a fresh
// trace (root span); a non-zero one continues it with parentSID as the
// parent span (local child or remote continuation).
func (t *Tracer) newSpan(name string, trace TraceID, parentSID SpanID) *Span {
	if trace.IsZero() {
		trace = t.ids.TraceID()
	}
	openSpans.Add(1)
	return &Span{
		tr:    t,
		name:  name,
		start: Now(),
		trace: trace,
		sid:   t.ids.SpanID(),
		psid:  parentSID,
	}
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
	tr    *Tracer
	name  string
	start int64
	trace TraceID
	sid   SpanID
	psid  SpanID
	attrs map[string]any
	links []TraceID
	mu    sync.Mutex
	ended bool
}

// Child opens a sub-span sharing s's trace ID. On a nil span it returns
// nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(name, s.trace, s.sid)
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
// is a no-op, and counts once in OpenSpans.
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
	openSpans.Add(-1)
	end := Now()
	rec := SpanRecord{
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
// TraceID/SpanID/ParentSpanID (hex in JSON) are its one identity: BuildTree
// links records by them, and traceparent propagates them.
type SpanRecord struct {
	Name         string         `json:"name"`
	Start        int64          `json:"start_ns"`
	End          int64          `json:"end_ns,omitempty"`
	Dur          int64          `json:"dur_ns"`
	TraceID      TraceID        `json:"trace_id"`
	SpanID       SpanID         `json:"span_id"`
	ParentSpanID SpanID         `json:"parent_span_id"`
	Links        []TraceID      `json:"links,omitempty"`
	Attrs        map[string]any `json:"attrs,omitempty"`
}
