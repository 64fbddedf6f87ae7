package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync/atomic"
)

// The flight recorder is the always-on black box: a bounded, sharded
// ring of the most recently completed spans plus discrete events
// (config switches, drift alarms, admission rejects). Recording copies
// a fixed-size entry into a preallocated slot under a per-shard mutex —
// ~zero steady-state allocation — so it stays on even when tracing is
// otherwise disabled. The ring is dumped as JSONL on drift-latch,
// /healthz 503 transition, SIGQUIT, and on demand via /debug/flight.

// FlightEntry is one ring slot: a completed span or a discrete event.
// A span's ParentSpanID and Links join the ring's traces: a request's
// trace ID appears in the links of the serve:batch span that executed
// it, and that batch's own trace holds its serve:execute and serve:tuner
// spans. Links shares the span record's slice (sinks treat it as
// read-only), so recording still copies a fixed-size entry.
type FlightEntry struct {
	Seq          uint64    `json:"seq"`
	Kind         string    `json:"kind"` // "span" or "event"
	Name         string    `json:"name"`
	TraceID      TraceID   `json:"trace_id"`
	SpanID       SpanID    `json:"span_id"`
	ParentSpanID SpanID    `json:"parent_span_id"`
	Links        []TraceID `json:"links,omitempty"`
	Start        int64     `json:"start_ns"`
	Dur          int64     `json:"dur_ns"`
	Detail       string    `json:"detail,omitempty"`
}

// flightShard is one ring segment. The trailing pad keeps hot shards on
// separate cache lines.
type flightShard struct {
	ring[FlightEntry]
	_ [64]byte
}

// FlightRecorder is a sharded ring buffer of recent spans and events.
// All methods are goroutine-safe and nil-safe.
type FlightRecorder struct {
	shards []flightShard
	seq    atomic.Uint64
}

// The process-wide recorder's size: 8 shards x 128 fixed-size entries.
const (
	flightShards   = 8
	flightPerShard = 128
)

// newFlightRecorder builds a recorder whose memory is fully
// preallocated: shards*perShard fixed-size entries.
func newFlightRecorder(shards, perShard int) *FlightRecorder {
	f := &FlightRecorder{shards: make([]flightShard, shards)}
	for i := range f.shards {
		f.shards[i].buf, f.shards[i].max = make([]FlightEntry, 0, perShard), perShard
	}
	return f
}

// defaultFlight is the process-wide always-on recorder: every completed
// span of every tracer and every runtime event lands here.
var defaultFlight = newFlightRecorder(flightShards, flightPerShard)

// Flight returns the process-wide flight recorder.
func Flight() *FlightRecorder { return defaultFlight }

func (f *FlightRecorder) record(e *FlightEntry) {
	if f == nil {
		return
	}
	e.Seq = f.seq.Add(1)
	f.shards[e.Seq%uint64(len(f.shards))].push(*e)
}

// OnSpanEnd records a completed span (SpanSink; NewTracer appends the
// process-wide recorder to every tracer's sinks). Span records and
// events are both stamped with obs.Now, so the entries of one ring are
// chronologically comparable.
func (f *FlightRecorder) OnSpanEnd(rec SpanRecord) {
	f.record(&FlightEntry{
		Kind:         "span",
		Name:         rec.Name,
		TraceID:      rec.TraceID,
		SpanID:       rec.SpanID,
		ParentSpanID: rec.ParentSpanID,
		Links:        rec.Links,
		Start:        rec.Start,
		Dur:          rec.Dur,
	})
}

// Event records a discrete event (switch, alarm, reject). tid may be
// zero when the event is not tied to one request.
func (f *FlightRecorder) Event(name, detail string, tid TraceID) {
	f.record(&FlightEntry{
		Kind:    "event",
		Name:    name,
		Detail:  detail,
		TraceID: tid,
		Start:   Now(),
	})
}

// Entries returns a copy of the retained entries in record order
// (ascending Seq).
func (f *FlightRecorder) Entries() []FlightEntry {
	if f == nil {
		return nil
	}
	var out []FlightEntry
	for i := range f.shards {
		out = append(out, f.shards[i].items()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump writes the retained entries as JSONL, oldest first.
func (f *FlightRecorder) Dump(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range f.Entries() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the ring as an on-demand JSONL dump (/debug/flight).
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		_ = f.Dump(w)
	})
}
