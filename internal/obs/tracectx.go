package obs

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync/atomic"
)

// Request-scoped trace identity (Dapper-style). A trace is one logical
// request; its ID is minted where the request enters the system and
// carried across process boundaries in the W3C `traceparent` header, so
// the serve handler stamps its spans with the 128-bit trace ID its caller
// sent and answers with the identity it used.

// TraceID identifies one logical request end to end (128 bits, rendered
// as 32 lowercase hex digits). The zero value means "no trace".
type TraceID [16]byte

// SpanID identifies one span within a trace (64 bits, 16 hex digits).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// MarshalText renders the ID as lowercase hex, so JSON expositions carry
// readable trace IDs rather than byte arrays.
func (t TraceID) MarshalText() ([]byte, error) { return hex.AppendEncode(nil, t[:]), nil }

// UnmarshalText parses 32 hex digits; an empty string is the zero ID.
func (t *TraceID) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*t = TraceID{}
		return nil
	}
	id, ok := parseTraceID(string(b))
	if !ok {
		return fmt.Errorf("obs: invalid trace id %q", b)
	}
	*t = id
	return nil
}

// MarshalText renders the ID as lowercase hex.
func (s SpanID) MarshalText() ([]byte, error) { return hex.AppendEncode(nil, s[:]), nil }

// UnmarshalText parses 16 hex digits; an empty string is the zero ID.
func (s *SpanID) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*s = SpanID{}
		return nil
	}
	id, ok := parseSpanID(string(b))
	if !ok {
		return fmt.Errorf("obs: invalid span id %q", b)
	}
	*s = id
	return nil
}

// parseTraceID parses 32 lowercase/uppercase hex digits.
func parseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, true
}

// parseSpanID parses 16 hex digits.
func parseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 16 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, false
	}
	return id, true
}

// SpanContext is the propagated identity of a span: which trace it
// belongs to and which span is the remote parent.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both IDs are non-zero (the W3C requirement for a
// usable parent).
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// TraceparentHeader is the W3C trace-context header name.
const TraceparentHeader = "traceparent"

// FormatTraceparent renders a W3C traceparent value
// (version 00, sampled flag set): 00-<traceid>-<spanid>-01.
func FormatTraceparent(sc SpanContext) string {
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent value. It accepts any
// version byte and ignores the flags, per the spec's forward-compat
// rules; ok is false for malformed values or all-zero IDs.
func ParseTraceparent(v string) (SpanContext, bool) {
	if len(v) != 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return SpanContext{}, false
	}
	// The version field must be two lowercase hex digits, and ff is
	// reserved-invalid by the spec.
	if !isHexByte(v[0]) || !isHexByte(v[1]) || v[:2] == "ff" {
		return SpanContext{}, false
	}
	tid, ok := parseTraceID(v[3:35])
	if !ok {
		return SpanContext{}, false
	}
	sid, ok := parseSpanID(v[36:52])
	if !ok {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: tid, SpanID: sid}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// isHexByte reports whether c is a lowercase hex digit.
func isHexByte(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
}

// Extract reads the traceparent header from h. The zero SpanContext
// (Valid() == false) means no usable identity arrived.
func Extract(h http.Header) SpanContext {
	v := h.Get(TraceparentHeader)
	if v == "" {
		return SpanContext{}
	}
	sc, _ := ParseTraceparent(v)
	return sc
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mix used
// for ID generation. It keeps IDs deterministic under a fixed seed
// without touching math/rand.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b5
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// idSource mints trace and span IDs: splitmix64 over an atomic counter,
// so IDs are unique per source, allocation-free, and — under a fixed
// seed — a deterministic sequence.
type idSource struct {
	state atomic.Uint64
}

// newIDSource builds an ID source. The same seed yields the same ID
// sequence; use a clock-derived seed for production uniqueness.
func newIDSource(seed int64) *idSource {
	s := &idSource{}
	s.state.Store(uint64(seed))
	return s
}

func (g *idSource) next() uint64 {
	// Weyl-sequence increment + finalizer: the canonical splitmix64 step.
	return mix64(g.state.Add(0x9e3779b97f4a7c15))
}

// TraceID returns a fresh non-zero trace ID.
func (g *idSource) TraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:8], g.next())
		binary.BigEndian.PutUint64(id[8:], g.next())
	}
	return id
}

// SpanID returns a fresh non-zero span ID.
func (g *idSource) SpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], g.next())
	}
	return id
}

// StartRemote opens a root span that continues the trace described by
// sc: it keeps sc's trace ID and records sc's span as the remote
// parent. An invalid sc degrades to a plain root span.
func (t *Tracer) StartRemote(sc SpanContext, name string) *Span {
	if t == nil {
		return nil
	}
	if !sc.Valid() {
		return t.Start(name)
	}
	return t.newSpan(name, sc.TraceID, sc.SpanID)
}
