package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// The flight recorder is the always-on black box and the one in-memory
// span store: a bounded, sharded ring of the most recently completed
// spans plus discrete events (config switches, drift alarms, admission
// rejects). Recording copies a fixed-size entry into a preallocated slot
// under a per-shard mutex — ~zero steady-state allocation — so it stays
// on even when tracing is otherwise disabled. The ring is dumped as JSONL
// on drift-latch, /healthz 503 transition, SIGQUIT, and on demand via
// /debug/flight; /trace renders its spans as a tree.

// FlightEntry is one ring slot: a completed span or a discrete event.
// A span entry is the whole SpanRecord. Its ParentSpanID and Links join
// the ring's traces: a request's trace ID appears in the links of the
// serve:batch span that executed it, and that batch's own trace holds its
// serve:execute and serve:tuner spans. Attrs and Links share the span
// record's map and slice (sinks treat them as read-only), so recording
// still copies a fixed-size entry. An event fills Name, TraceID, Start
// and Detail.
type FlightEntry struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"` // "span" or "event"
	SpanRecord
	Detail string `json:"detail,omitempty"`
}

// flightShard is one ring segment: once full, each push overwrites the
// oldest entry. The trailing pad keeps hot shards on separate cache
// lines.
type flightShard struct {
	mu   sync.Mutex
	buf  []FlightEntry
	head int // buf[head] is the oldest entry once the shard is full
	_    [64]byte
}

func (s *flightShard) push(e *FlightEntry) {
	s.mu.Lock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, *e)
	} else {
		s.buf[s.head] = *e
		s.head = (s.head + 1) % len(s.buf)
	}
	s.mu.Unlock()
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
		f.shards[i].buf = make([]FlightEntry, 0, perShard)
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
	f.shards[e.Seq%uint64(len(f.shards))].push(e)
}

// OnSpanEnd records a completed span (SpanSink; NewTracer appends the
// process-wide recorder to every tracer's sinks). Span records and
// events are both stamped with obs.Now, so the entries of one ring are
// chronologically comparable.
func (f *FlightRecorder) OnSpanEnd(rec SpanRecord) {
	f.record(&FlightEntry{Kind: "span", SpanRecord: rec})
}

// Event records a discrete event (switch, alarm, reject). tid may be
// zero when the event is not tied to one request.
func (f *FlightRecorder) Event(name, detail string, tid TraceID) {
	f.record(&FlightEntry{
		Kind:       "event",
		SpanRecord: SpanRecord{Name: name, TraceID: tid, Start: Now()},
		Detail:     detail,
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
		s := &f.shards[i]
		s.mu.Lock()
		out = append(out, s.buf...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump writes the retained entries as JSONL, oldest first. An entry whose
// attributes JSON cannot carry (a NaN, say) is written without them, so
// one attribute cannot cut the dump short.
func (f *FlightRecorder) Dump(w io.Writer) error {
	for _, e := range f.Entries() {
		line, err := json.Marshal(e)
		if err != nil {
			e.Attrs = nil // the rest of an entry always encodes
			line, _ = json.Marshal(e)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
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
