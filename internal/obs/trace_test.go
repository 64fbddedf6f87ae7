package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestTracerRetentionKeepsMostRecent pins the ring semantics of the
// in-memory span store: when more spans complete than KeepInMemory, the
// retained set is the most recent N in completion order — not the first
// N — so a long-lived server's /trace always shows current activity.
func TestTracerRetentionKeepsMostRecent(t *testing.T) {
	tr := NewTracer(TracerOptions{KeepInMemory: 3})
	for i := 0; i < 10; i++ {
		tr.Start(fmt.Sprintf("span-%d", i)).End()
	}
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("retained %d, want 3", len(recs))
	}
	for i, want := range []string{"span-7", "span-8", "span-9"} {
		if recs[i].Name != want {
			t.Errorf("records[%d] = %q, want %q (ring must keep the newest, oldest first)", i, recs[i].Name, want)
		}
	}
	if tr.Dropped() != 7 {
		t.Errorf("dropped = %d, want 7", tr.Dropped())
	}
}

// TestTraceparentRoundTrip pins the W3C traceparent wire format through
// format → parse → inject → extract.
func TestTraceparentRoundTrip(t *testing.T) {
	tid, ok := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	if !ok {
		t.Fatal("ParseTraceID rejected valid ID")
	}
	sid, ok := ParseSpanID("00f067aa0ba902b7")
	if !ok {
		t.Fatal("ParseSpanID rejected valid ID")
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
	a, b := NewIDSource(42), NewIDSource(42)
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
	c := NewIDSource(43)
	if a0, c0 := NewIDSource(42).TraceID(), c.TraceID(); a0 == c0 {
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

// sampleTrace pushes one synthetic single-span trace through a sampler
// and finishes it with the given verdict.
func sampleTrace(ts *TailSampler, ids *IDSource, v Verdict) (TraceID, bool, string) {
	tid := ids.TraceID()
	ts.OnSpanEnd(SpanRecord{Name: "req", TraceID: tid, SpanID: ids.SpanID()})
	kept, reason := ts.Finish(tid, v)
	return tid, kept, reason
}

// TestTailSamplerReasons pins the keep-reason precedence and the floor.
func TestTailSamplerReasons(t *testing.T) {
	ts := NewTailSampler(TailSamplerOptions{Seed: 3, Floor: -1})
	ids := NewIDSource(7)
	cases := []struct {
		v      Verdict
		kept   bool
		reason string
	}{
		{Verdict{Errored: true, Slow: true, Eventful: true}, true, "error"},
		{Verdict{Slow: true, Eventful: true}, true, "slow"},
		{Verdict{Eventful: true}, true, "event"},
		{Verdict{}, false, ""},
	}
	for _, c := range cases {
		_, kept, reason := sampleTrace(ts, ids, c.v)
		if kept != c.kept || reason != c.reason {
			t.Errorf("verdict %+v: kept=%v reason=%q, want kept=%v reason=%q", c.v, kept, reason, c.kept, c.reason)
		}
	}

	// Floor=1 keeps everything uninteresting with reason "floor".
	all := NewTailSampler(TailSamplerOptions{Seed: 3, Floor: 1})
	if _, kept, reason := sampleTrace(all, ids, Verdict{}); !kept || reason != "floor" {
		t.Errorf("Floor=1: kept=%v reason=%q, want floor keep", kept, reason)
	}
}

// samplerRun drives a fixed workload through a fresh seeded sampler and
// returns the kept trace IDs in decision order.
func samplerRun(seed int64) []string {
	ts := NewTailSampler(TailSamplerOptions{Seed: seed, Floor: 0.25})
	ids := NewIDSource(99)
	var kept []string
	for i := 0; i < 400; i++ {
		tid, ok, _ := sampleTrace(ts, ids, Verdict{})
		if ok {
			kept = append(kept, tid.String())
		}
	}
	return kept
}

// TestTailSamplerDeterministicAcrossGOMAXPROCS pins floor-sampling
// reproducibility: same seed, same trace IDs → bit-identical kept set,
// independent of scheduler parallelism.
func TestTailSamplerDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	kept1 := samplerRun(11)
	runtime.GOMAXPROCS(8)
	kept8 := samplerRun(11)

	if len(kept1) == 0 {
		t.Fatal("floor=0.25 kept nothing across 400 traces; determinism check is vacuous")
	}
	if len(kept1) != len(kept8) {
		t.Fatalf("kept %d at GOMAXPROCS=1 but %d at 8", len(kept1), len(kept8))
	}
	for i := range kept1 {
		if kept1[i] != kept8[i] {
			t.Fatalf("kept[%d] differs: %s vs %s", i, kept1[i], kept8[i])
		}
	}
	// And a different seed must produce a different kept set.
	if other := samplerRun(12); len(other) == len(kept1) {
		same := true
		for i := range other {
			if other[i] != kept1[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("seeds 11 and 12 kept identical sets; floor is not seed-driven")
		}
	}
}

// TestTailSamplerLinkCopiesSubtree checks the batch-linking contract: a
// span that Links another trace donates its buffered subtree to the
// linked trace, so the member's kept trace includes the shared spans.
func TestTailSamplerLinkCopiesSubtree(t *testing.T) {
	ts := NewTailSampler(TailSamplerOptions{Seed: 1, Floor: -1})
	ids := NewIDSource(3)
	member := ids.TraceID()
	batch := ids.TraceID()

	ts.OnSpanEnd(SpanRecord{Name: "member:request", TraceID: member, SpanID: ids.SpanID()})
	ts.OnSpanEnd(SpanRecord{Name: "batch:execute", TraceID: batch, SpanID: ids.SpanID()})
	ts.OnSpanEnd(SpanRecord{Name: "batch:root", TraceID: batch, SpanID: ids.SpanID(), Links: []TraceID{member}})

	kept, reason := ts.Finish(member, Verdict{Slow: true})
	if !kept || reason != "slow" {
		t.Fatalf("Finish: kept=%v reason=%q", kept, reason)
	}
	traces := ts.Kept()
	if len(traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(traces))
	}
	names := make(map[string]bool)
	for _, sp := range traces[0].Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"member:request", "batch:execute", "batch:root"} {
		if !names[want] {
			t.Errorf("kept trace missing %q (have %v)", want, names)
		}
	}
}

// TestTailSamplerBoundedPending checks eviction: undecided traces
// beyond maxPending are dropped oldest-first and counted.
func TestTailSamplerBoundedPending(t *testing.T) {
	ts := NewTailSampler(TailSamplerOptions{Seed: 1, Floor: -1})
	ts.maxPending = 8
	ids := NewIDSource(5)
	tids := make([]TraceID, 20)
	for i := range tids {
		tids[i] = ids.TraceID()
		ts.OnSpanEnd(SpanRecord{Name: "s", TraceID: tids[i], SpanID: ids.SpanID()})
	}
	_, _, evicted := ts.Stats()
	if evicted != 12 {
		t.Errorf("evicted = %d, want 12", evicted)
	}
	// An evicted trace finishes with no spans: decision still works, but
	// a keep would be empty — the sampler must not keep what it no longer
	// buffers unless the verdict demands it.
	kept, _ := ts.Finish(tids[0], Verdict{})
	if kept {
		t.Error("uninteresting evicted trace kept with floor disabled")
	}
}

// TestExemplarJSONRoundTrip pins exemplar persistence through the
// QSnapshot JSON codec.
func TestExemplarJSONRoundTrip(t *testing.T) {
	h := NewQHist()
	tid, ok := ParseTraceID("0af7651916cd43dd8448eb211c80319c")
	if !ok {
		t.Fatal("ParseTraceID rejected valid ID")
	}
	for i := 1; i <= 64; i++ {
		h.Observe(float64(i) / 128)
	}
	h.ObserveExemplar(0.25, tid)
	snap := h.Snapshot()

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back QSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.exemplars) != 1 {
		t.Fatalf("decoded snapshot carries %d exemplars, want 1", len(back.exemplars))
	}
	ex, ok := back.exemplars[qhistIndex(0.25)]
	if !ok {
		t.Fatalf("decoded exemplar left its bucket: %v", back.exemplars)
	}
	if ex.TraceID != tid {
		t.Errorf("exemplar trace = %s, want %s", ex.TraceID, tid)
	}
	if math.Float64bits(ex.Value) != math.Float64bits(0.25) {
		t.Errorf("exemplar value = %v, want 0.25", ex.Value)
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

// TestEverySinkSeesEachSpanOnce runs one tracer with all four kinds of
// destination — ring, JSONL writer, flight recorder, tail sampler — and
// holds them to one record: each span arrives at each exactly once, with
// the same identity and the same process-clock times, and the flight
// entry's start_ns is the record's Start, not a re-based copy.
func TestEverySinkSeesEachSpanOnce(t *testing.T) {
	var buf bytes.Buffer
	sampler := NewTailSampler(TailSamplerOptions{Seed: 1, Floor: 1})
	tr := NewTracer(TracerOptions{Writer: &buf, KeepInMemory: 16, IDSeed: 77, Sinks: []SpanSink{sampler}})
	t0 := Now()
	root := tr.Start("sinks:root").With("k", 1)
	child := root.Child("sinks:child")
	child.End()
	root.End()
	t1 := Now()
	if kept, _ := sampler.Finish(root.TraceID(), Verdict{}); !kept {
		t.Fatal("Floor=1 sampler dropped the trace")
	}

	ring := tr.Records()
	if len(ring) != 2 || ring[0].Name != "sinks:child" || ring[1].Name != "sinks:root" {
		t.Fatalf("ring holds %v, want child then root", ring)
	}
	for _, rec := range ring {
		if rec.Start < t0 || rec.End > t1 || rec.End < rec.Start {
			t.Errorf("%s: [%d, %d] outside the process-clock window [%d, %d]", rec.Name, rec.Start, rec.End, t0, t1)
		}
	}
	// Everything but Attrs (JSON turns numbers into float64) must match.
	same := func(a, b SpanRecord) bool {
		a.Attrs, b.Attrs = nil, nil
		return reflect.DeepEqual(a, b)
	}
	written, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	kept := sampler.Kept()
	if len(kept) != 1 {
		t.Fatalf("sampler kept %d traces, want 1", len(kept))
	}
	byStart := []SpanRecord{ring[1], ring[0]} // the sampler orders a kept trace by Start
	for name, got := range map[string][]SpanRecord{"jsonl": written, "sampler": kept[0].Spans} {
		want := ring
		if name == "sampler" {
			want = byStart
		}
		if len(got) != len(want) {
			t.Errorf("%s received %d spans, want %d", name, len(got), len(want))
			continue
		}
		for i := range want {
			if !same(got[i], want[i]) {
				t.Errorf("%s span %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
	for _, rec := range ring {
		n := 0
		for _, e := range Flight().Entries() {
			if e.SpanID != rec.SpanID || e.TraceID != rec.TraceID {
				continue
			}
			n++
			if e.Start != rec.Start || e.Dur != rec.Dur || e.Name != rec.Name {
				t.Errorf("flight entry %+v differs from record %+v", e, rec)
			}
		}
		if n != 1 {
			t.Errorf("%s is in the flight ring %d times, want 1", rec.Name, n)
		}
	}
}

// TestEndHandsOverAttrsAndLinks pins the ownership rule that lets End
// skip copying: the record takes the span's attribute map and links, so
// With and Link racing End either land before it or not at all, and
// after End are no-ops — a delivered record never changes.
func TestEndHandsOverAttrsAndLinks(t *testing.T) {
	sink := &recordingSink{}
	tr := NewTracer(TracerOptions{KeepInMemory: -1, IDSeed: 9, Sinks: []SpanSink{sink}})
	other := NewIDSource(4).TraceID()
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
// through a ring: the two spans and one attribute map. The parent of the
// change that removed End's copy of that map read 6 allocations / 960 B.
func TestTracedBracketAllocs(t *testing.T) {
	tr := NewTracer(TracerOptions{KeepInMemory: 64, IDSeed: 1})
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
