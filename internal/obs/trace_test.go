package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestTraceparentRoundTrip pins the W3C traceparent wire format through
// format → parse → inject → extract.
func TestTraceparentRoundTrip(t *testing.T) {
	tid, ok := parseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	if !ok {
		t.Fatal("parseTraceID rejected valid ID")
	}
	sid, ok := parseSpanID("00f067aa0ba902b7")
	if !ok {
		t.Fatal("parseSpanID rejected valid ID")
	}
	sc := SpanContext{TraceID: tid, SpanID: sid}
	hdr := FormatTraceparent(sc)
	if hdr != "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01" {
		t.Fatalf("FormatTraceparent = %q", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatal("ParseTraceparent rejected its own format")
	}
	if got != sc {
		t.Fatalf("round trip: got %+v, want %+v", got, sc)
	}

	h := http.Header{}
	h.Set(TraceparentHeader, hdr)
	if ex := Extract(h); ex != sc {
		t.Fatalf("Extract = %+v, want %+v", ex, sc)
	}

	for _, bad := range []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad hex
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want rejection", bad)
		}
	}
}

// TestIDSourceDeterministic pins the seeded identity stream: the same
// seed yields the same trace/span IDs, different seeds diverge, and no
// ID is ever zero.
func TestIDSourceDeterministic(t *testing.T) {
	a, b := newIDSource(42), newIDSource(42)
	for i := 0; i < 100; i++ {
		ta, tb := a.TraceID(), b.TraceID()
		if ta != tb {
			t.Fatalf("seed-42 streams diverge at %d: %s vs %s", i, ta, tb)
		}
		if ta.IsZero() {
			t.Fatal("zero trace ID minted")
		}
		sa, sb := a.SpanID(), b.SpanID()
		if sa != sb {
			t.Fatalf("span streams diverge at %d", i)
		}
		if sa.IsZero() {
			t.Fatal("zero span ID minted")
		}
	}
	c := newIDSource(43)
	if a0, c0 := newIDSource(42).TraceID(), c.TraceID(); a0 == c0 {
		t.Error("different seeds produced identical first trace IDs")
	}
}

// TestFlightRecorderConcurrent hammers one recorder with concurrent
// span/event writes while dumping it — the CI race gate runs this under
// -race. Every dumped line must be valid JSON and entry sequence
// numbers must be unique.
func TestFlightRecorderConcurrent(t *testing.T) {
	fr := newFlightRecorder(4, 64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					fr.Event(fmt.Sprintf("event-%d", w), "detail", TraceID{})
				} else {
					fr.OnSpanEnd(SpanRecord{Name: fmt.Sprintf("span-%d", w)})
				}
			}
		}(w)
	}
	for d := 0; d < 20; d++ {
		var buf bytes.Buffer
		if err := fr.Dump(&buf); err != nil {
			t.Fatalf("dump %d: %v", d, err)
		}
		seen := make(map[uint64]bool)
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if line == "" {
				continue
			}
			var e FlightEntry
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("dump %d: bad JSONL line %q: %v", d, line, err)
			}
			if seen[e.Seq] {
				t.Fatalf("dump %d: duplicate seq %d", d, e.Seq)
			}
			seen[e.Seq] = true
		}
	}
	close(stop)
	wg.Wait()
}

// TestFlightRecorderRetainsRecent checks the per-shard rings keep the
// most recent entries once full.
func TestFlightRecorderRetainsRecent(t *testing.T) {
	fr := newFlightRecorder(1, 8)
	for i := 0; i < 100; i++ {
		fr.Event(fmt.Sprintf("e%d", i), "", TraceID{})
	}
	entries := fr.Entries()
	if len(entries) != 8 {
		t.Fatalf("retained %d entries, want 8", len(entries))
	}
	for i, e := range entries {
		if want := fmt.Sprintf("e%d", 92+i); e.Name != want {
			t.Errorf("entries[%d] = %q, want %q", i, e.Name, want)
		}
	}
}

// TestFlightDumpCarriesAttrs pins what /debug/flight shows of a span: its
// attributes, and, when one of them has no JSON form, the rest of the
// entry and of the dump.
func TestFlightDumpCarriesAttrs(t *testing.T) {
	fr := newFlightRecorder(1, 8)
	fr.OnSpanEnd(SpanRecord{Name: "ok", Attrs: map[string]any{"k": 1}})
	fr.OnSpanEnd(SpanRecord{Name: "nan", Attrs: map[string]any{"alpha": math.NaN()}})
	fr.Event("after", "", TraceID{})
	var buf bytes.Buffer
	if err := fr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("dump has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	for i, want := range []string{`"name":"ok"`, `"name":"nan"`, `"name":"after"`} {
		if !strings.Contains(lines[i], want) {
			t.Errorf("line %d = %s, want %s", i, lines[i], want)
		}
	}
	if !strings.Contains(lines[0], `"attrs":{"k":1}`) || strings.Contains(lines[1], `"attrs"`) {
		t.Errorf("attrs dumped as %s and %s, want {\"k\":1} and none", lines[0], lines[1])
	}
}

// TestFlightTimeBase pins the ring onto a single clock: a span finished
// through a tracer and an event stamped directly must both land with
// Start on the process clock (obs.Now), so entries from the two paths
// are chronologically comparable.
func TestFlightTimeBase(t *testing.T) {
	t0 := Now()
	tr := NewTracer(TracerOptions{IDSeed: 99})
	sp := tr.Start("flight-timebase-span")
	sp.End()
	Flight().Event("flight-timebase-event", "", TraceID{})
	t1 := Now()

	starts := make(map[string]int64)
	for _, e := range Flight().Entries() {
		if e.Name == "flight-timebase-span" || e.Name == "flight-timebase-event" {
			starts[e.Name] = e.Start
		}
	}
	for _, name := range []string{"flight-timebase-span", "flight-timebase-event"} {
		got, ok := starts[name]
		if !ok {
			t.Fatalf("%s not found in flight ring", name)
		}
		if got < t0 || got > t1 {
			t.Errorf("%s Start=%d outside process-clock window [%d, %d]; mixed time bases in ring", name, got, t0, t1)
		}
	}
	if starts["flight-timebase-event"] < starts["flight-timebase-span"] {
		t.Errorf("event recorded after span sorts before it: span=%d event=%d",
			starts["flight-timebase-span"], starts["flight-timebase-event"])
	}
}

// FuzzParseTraceparent holds the parser of the one header every peer can
// send us to three properties: it never panics, what it accepts is a valid
// identity that survives FormatTraceparent → ParseTraceparent unchanged,
// and what it rejects comes back as the zero SpanContext — so an all-zero
// trace or span ID can never be continued.
func FuzzParseTraceparent(f *testing.F) {
	const tid, sid = "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"
	for _, seed := range []string{
		"00-" + tid + "-" + sid + "-01",                     // valid
		"cc-" + tid + "-" + sid + "-00",                     // future version, unsampled
		"ff-" + tid + "-" + sid + "-01",                     // reserved version
		"00-" + strings.Repeat("0", 32) + "-" + sid + "-01", // zero trace ID
		"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", // zero span ID
		"00-" + strings.ToUpper(tid) + "-" + strings.ToUpper(sid) + "-01",
		"00-" + tid + "-" + sid,               // short: no flags
		"00-" + tid[:31] + "-" + sid + "-01",  // short trace ID
		"00-" + tid + "-" + sid + "-01-extra", // trailing field
		"00_" + tid + "_" + sid + "_01",       // wrong separators
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceparent(v)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("ParseTraceparent(%q) rejected the value but returned %+v", v, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an identity with a zero ID: %+v", v, sc)
		}
		if got := FormatTraceparent(sc); !strings.EqualFold(got[3:52], v[3:52]) {
			t.Fatalf("ParseTraceparent(%q) reads IDs %q", v, got[3:52])
		}
		if back, ok := ParseTraceparent(FormatTraceparent(sc)); !ok || back != sc {
			t.Fatalf("round trip of %q: got %+v (ok=%v), want %+v", v, back, ok, sc)
		}
	})
}

// recordingSink keeps what it is handed, in order.
type recordingSink struct {
	mu   sync.Mutex
	recs []SpanRecord
}

func (s *recordingSink) OnSpanEnd(rec SpanRecord) {
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

func (s *recordingSink) records() []SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SpanRecord(nil), s.recs...)
}

// TestEverySinkSeesEachSpanOnce runs one tracer with all three kinds of
// destination — JSONL writer, flight recorder, a caller's sink — and holds
// them to one record: each span arrives at each exactly once, with the
// same identity and the same process-clock times, and the flight entry is
// the record itself, not a re-based copy.
func TestEverySinkSeesEachSpanOnce(t *testing.T) {
	var buf bytes.Buffer
	sink := &recordingSink{}
	tr := NewTracer(TracerOptions{Writer: &buf, IDSeed: 77, Sinks: []SpanSink{sink}})
	t0 := Now()
	root := tr.Start("sinks:root").With("k", 1)
	child := root.Child("sinks:child")
	child.End()
	root.End()
	t1 := Now()

	recs := sink.records()
	if len(recs) != 2 || recs[0].Name != "sinks:child" || recs[1].Name != "sinks:root" {
		t.Fatalf("sink holds %v, want child then root", recs)
	}
	for _, rec := range recs {
		if rec.Start < t0 || rec.End > t1 || rec.End < rec.Start {
			t.Errorf("%s: [%d, %d] outside the process-clock window [%d, %d]", rec.Name, rec.Start, rec.End, t0, t1)
		}
	}
	written, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != len(recs) {
		t.Fatalf("jsonl received %d spans, want %d", len(written), len(recs))
	}
	for i, got := range written {
		// JSON turns numbers into float64, so Attrs are compared apart.
		want := recs[i]
		if fmt.Sprint(got.Attrs) != fmt.Sprint(want.Attrs) {
			t.Errorf("jsonl span %d attrs %v, want %v", i, got.Attrs, want.Attrs)
		}
		got.Attrs, want.Attrs = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("jsonl span %d = %+v, want %+v", i, got, want)
		}
	}
	for _, rec := range recs {
		n := 0
		for _, e := range Flight().Entries() {
			// The ring is process-wide and IDSeed fixed: under -count an
			// earlier run left entries with these IDs, all before t0.
			if e.Kind != "span" || e.SpanID != rec.SpanID || e.TraceID != rec.TraceID || e.Start < t0 {
				continue
			}
			n++
			if !reflect.DeepEqual(e.SpanRecord, rec) {
				t.Errorf("flight entry %+v differs from record %+v", e.SpanRecord, rec)
			}
		}
		if n != 1 {
			t.Errorf("%s is in the flight ring %d times, want 1", rec.Name, n)
		}
	}
}

// TestBuildTreeSurvivesBadLinks feeds BuildTree the links an untrusted
// traceparent or a ring of several tracers can produce — a span that is
// its own parent, two spans that are each other's parent, one span ID on
// two records — and holds it to a forest in which every record is one
// node: a walk visits each once, and Summarize ends.
func TestBuildTreeSurvivesBadLinks(t *testing.T) {
	id := func(b byte) SpanID { return SpanID{7: b} }
	recs := []SpanRecord{
		{Name: "ok:root", Start: 1, SpanID: id(1)},
		{Name: "ok:child", Start: 2, SpanID: id(2), ParentSpanID: id(1)},
		{Name: "self", Start: 3, SpanID: id(3), ParentSpanID: id(3)},
		{Name: "cycle:a", Start: 4, SpanID: id(4), ParentSpanID: id(5)},
		{Name: "cycle:b", Start: 5, SpanID: id(5), ParentSpanID: id(4)},
		{Name: "dup:first", Start: 6, SpanID: id(6)},
		{Name: "dup:second", Start: 7, SpanID: id(6), ParentSpanID: id(6)},
		{Name: "dup:child", Start: 8, SpanID: id(8), ParentSpanID: id(6)},
		{Name: "orphan", Start: 9, SpanID: id(9), ParentSpanID: id(99)},
	}
	under := map[string]string{}
	visits := map[string]int{}
	var roots []string
	for _, root := range BuildTree(recs) {
		roots = append(roots, root.Name)
		root.Walk(func(n *TreeNode, _ int) {
			visits[n.Name]++
			for _, c := range n.Children {
				under[c.Name] = n.Name
			}
		})
	}
	if want := []string{"ok:root", "self", "cycle:b", "dup:first", "orphan"}; !reflect.DeepEqual(roots, want) {
		t.Errorf("roots %v, want %v", roots, want)
	}
	for child, parent := range map[string]string{
		"ok:child": "ok:root", "cycle:a": "cycle:b", "dup:second": "dup:first", "dup:child": "dup:first",
	} {
		if got := under[child]; got != parent {
			t.Errorf("%s is under %q, want %q", child, got, parent)
		}
	}
	for _, r := range recs {
		if visits[r.Name] != 1 {
			t.Errorf("walk visited %s %d times, want once", r.Name, visits[r.Name])
		}
	}
	if lines := strings.Count(Summarize(recs), "\n"); lines != len(recs) {
		t.Errorf("Summarize rendered %d lines, want %d", lines, len(recs))
	}
}

// TestEndHandsOverAttrsAndLinks pins the ownership rule that lets End
// skip copying: the record takes the span's attribute map and links, so
// With and Link racing End either land before it or not at all, and
// after End are no-ops — a delivered record never changes.
func TestEndHandsOverAttrsAndLinks(t *testing.T) {
	sink := &recordingSink{}
	tr := NewTracer(TracerOptions{IDSeed: 9, Sinks: []SpanSink{sink}})
	other := newIDSource(4).TraceID()
	const spans, writers = 200, 3
	for i := 0; i < spans; i++ {
		sp := tr.Start("race").With("base", i)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := 0; j < 8; j++ {
					sp.With(fmt.Sprintf("w%d-%d", w, j), j).Link(other)
				}
			}(w)
		}
		sp.End()
		wg.Wait()
	}
	recs := sink.records()
	if len(recs) != spans {
		t.Fatalf("sink received %d records, want %d", len(recs), spans)
	}
	// Reading every delivered map after all writers are done is the
	// check: under -race a write that slipped past End is reported here.
	for i, rec := range recs {
		if rec.Attrs["base"] != i {
			t.Fatalf("record %d: base = %v", i, rec.Attrs["base"])
		}
		if len(rec.Attrs) > 1+writers*8 || len(rec.Links) > writers*8 {
			t.Fatalf("record %d: %d attrs, %d links", i, len(rec.Attrs), len(rec.Links))
		}
	}

	sp := tr.Start("after-end").With("a", 1).Link(other)
	sp.End()
	sp.With("b", 2).Link(other)
	last := sink.records()[spans]
	if len(last.Attrs) != 1 || len(last.Links) != 1 {
		t.Errorf("With/Link after End changed the delivered record: attrs %v, %d links", last.Attrs, len(last.Links))
	}
}

// TestTracedBracketAllocs pins what a traced two-span bracket costs
// through the flight recorder: the two spans and one attribute map. The
// parent of the change that removed End's copy of that map read 6
// allocations / 960 B.
func TestTracedBracketAllocs(t *testing.T) {
	tr := NewTracer(TracerOptions{IDSeed: 1})
	if n := testing.AllocsPerRun(1000, func() {
		root := tr.Start("req").With("status", 200).With("items", 2).With("config", 3)
		root.Child("exec").End()
		root.End()
	}); n > 4 {
		t.Errorf("traced two-span bracket allocates %.0f times, want at most 4", n)
	}
}

// TestOpenSpansCountsEveryStart pins the count leakcheck reads: every
// constructor counts its span once, the first End uncounts it, a second
// End and a nil span do nothing.
func TestOpenSpansCountsEveryStart(t *testing.T) {
	before := OpenSpans()
	open := func(want int64) {
		t.Helper()
		if got := OpenSpans() - before; got != want {
			t.Fatalf("%d spans open, want %d", got, want)
		}
	}
	tr := NewTracer(TracerOptions{IDSeed: 3})
	root := tr.Start("root")
	child := root.Child("child")
	remote := tr.StartRemote(root.Context(), "remote")
	open(3)
	for _, sp := range []*Span{remote, child, root} {
		sp.End()
		sp.End()
	}
	open(0)

	var none *Span
	none.Child("x").End()
	none.End()
	var off *Tracer
	off.Start("off").End()
	open(0)
}
