package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRec is one recorded layer-boundary crossing. Times are nanoseconds
// since the recorder was created. Parent is the ID of the span that caused
// this one (0 for a root); Op groups the spans of one operation (one
// Execute call, one tuning pass, one request).
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the benchmark's own spans in memory until the run ends.
// A nil *recorder records nothing, so the untraced run pays one nil check
// per boundary.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []spanRec
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]spanRec, 0, 1<<16)}
}

// span is a handle on an open spanRec; the zero span is inert.
type span struct {
	rec *recorder
	id  int
}

// start opens a span under parent (the zero span for a root).
func (r *recorder) start(name string, parent span, op int64) span {
	if r == nil {
		return span{}
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, spanRec{ID: id, Parent: parent.id, Op: op, Name: name, Start: now})
	r.mu.Unlock()
	return span{rec: r, id: id}
}

// end closes the span.
func (s span) end() {
	if s.rec == nil {
		return
	}
	now := int64(time.Since(s.rec.t0))
	s.rec.mu.Lock()
	s.rec.spans[s.id-1].End = now
	s.rec.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the server's
// queue and execute times come back in the response, not from a clock the
// benchmark holds); start is relative to the recorder's origin.
func (r *recorder) add(name string, parent span, op int64, start, dur time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, spanRec{ID: len(r.spans) + 1, Parent: parent.id, Op: op, Name: name,
		Start: int64(start), End: int64(start + dur)})
	r.mu.Unlock()
}

// since is the recorder-relative time of t.
func (r *recorder) since(t time.Time) time.Duration {
	if r == nil {
		return 0
	}
	return t.Sub(r.t0)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of durations not covered by child spans
}

// selfTimes computes, per span name, the span count, the total duration
// and the self time: a span's duration minus the part of its interval that
// its children cover (overlapping children — parallel program runs under
// one tuning span — are counted once).
func selfTimes(spans []spanRec) map[string]layerTime {
	children := make(map[int][]spanRec)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		dur := s.End - s.Start
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - covered(s.Start, s.End, children[s.ID]))
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to [lo, hi].
func covered(lo, hi int64, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		total += v[1] - max(v[0], end)
		end = v[1]
	}
	return total
}

func spanPath(rc runConfig, workload string) string {
	return filepath.Join(rc.outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", workload, rc.seed))
}

// finishTrace ends a traced workload: the spans go to the span file, and
// the run's notes get each layer's span count, total and self time.
func (r *recorder) finishTrace(rc runConfig, workload string, res *results) error {
	layers := selfTimes(r.spans)
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lt := layers[n]
		res.note("spans %-22s n=%-6d total %9.3f s  self %9.3f s (wall)", n, lt.Count, lt.Total.Seconds(), lt.Self.Seconds())
	}
	return r.writeJSONL(spanPath(rc, workload))
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
