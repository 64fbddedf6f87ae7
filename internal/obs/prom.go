package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus writes every metric of the registry in the classic
// Prometheus text exposition format (version 0.0.4), ordered by metric
// name so the output is deterministic for a given registry state:
//
//   - Counter      → counter
//   - Gauge        → gauge
//   - CounterVec   → counter with a `key` label per family member
//   - GaugeVec     → gauge with a `key` label per family member
//   - QHistogram   → summary (p50/p90/p99 quantile series) plus a
//     `<name>_max` gauge for the tail
//   - QHistVec     → summary with a `key` label per family member
//
// The classic format has no exemplar syntax, so exemplars are never
// emitted here — a scraper speaking text/plain;version=0.0.4 would
// fail the whole scrape on one. Exemplar-carrying exposition is
// WriteOpenMetrics; the JSON snapshot carries them too.
//
// Metric names are mangled dots-to-underscores ("runtime.drift_alarms"
// → "runtime_drift_alarms"), which maps the project's snake_case dotted
// naming convention onto Prometheus' [a-zA-Z_:] charset exactly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeText(w, false)
}

// WriteOpenMetrics writes the registry in the OpenMetrics 1.0 text
// format (terminated by the mandatory `# EOF`). Differences from the
// classic exposition, per the OpenMetrics grammar:
//
//   - counter samples carry the canonical `_total` suffix;
//   - QHistogram / QHistVec families are exposed as histograms —
//     cumulative `_bucket{le=...}` series over the log-linear buckets
//     actually touched — because OpenMetrics allows exemplars only on
//     histogram buckets and counters, never on summary quantiles. Each
//     bucket line carries its recorded exemplar
//     (`# {trace_id="…"} value`); quantiles come from
//     histogram_quantile() over the buckets.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.writeText(w, true)
}

func (r *Registry) writeText(w io.Writer, om bool) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.metrics))
	byName := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		names = append(names, name)
		byName[name] = m
	}
	r.mu.RUnlock()
	sort.Strings(names)

	pw := &promWriter{w: w}
	ctrSample := func(pn string) string {
		if om {
			return pn + "_total"
		}
		return pn
	}
	for _, name := range names {
		pn := promName(name)
		switch m := byName[name].(type) {
		case *Counter:
			pw.typ(pn, "counter")
			pw.line(ctrSample(pn), "", float64(m.Value()))
		case *Gauge:
			pw.typ(pn, "gauge")
			pw.line(pn, "", m.Value())
		case *CounterVec:
			pw.typ(pn, "counter")
			for _, kv := range sortedLabels(m.snapshot()) {
				pw.line(ctrSample(pn), promLabel("key", kv.k), float64(kv.v))
			}
		case *GaugeVec:
			pw.typ(pn, "gauge")
			for _, kv := range sortedFloatLabels(m.snapshot()) {
				pw.line(pn, promLabel("key", kv.k), kv.v)
			}
		case *QHistogram:
			if om {
				s := m.Snapshot()
				pw.typ(pn, "histogram")
				pw.qhistOM(pn, s, "")
				// The tail maximum is its own gauge family: _max is not a
				// histogram sample suffix the OpenMetrics grammar knows.
				pw.typ(pn+"_max", "gauge")
				pw.line(pn+"_max", "", s.Max())
			} else {
				pw.typ(pn, "summary")
				pw.summary(pn, m.Snapshot(), "")
			}
		case *QHistVec:
			if om {
				snaps := sortedSnapshotLabels(m.snapshots())
				pw.typ(pn, "histogram")
				for _, kv := range snaps {
					pw.qhistOM(pn, kv.v, promLabel("key", kv.k))
				}
				pw.typ(pn+"_max", "gauge")
				for _, kv := range snaps {
					pw.line(pn+"_max", promLabel("key", kv.k), kv.v.Max())
				}
			} else {
				pw.typ(pn, "summary")
				for _, kv := range sortedSnapshotLabels(m.snapshots()) {
					pw.summary(pn, kv.v, promLabel("key", kv.k))
				}
			}
		}
	}
	if om {
		pw.printf("# EOF\n")
	}
	return pw.err
}

// promWriter accumulates the first write error so callers check once.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) typ(name, kind string) { p.printf("# TYPE %s %s\n", name, kind) }

func (p *promWriter) line(name, labels string, v float64) {
	if labels == "" {
		p.printf("%s %s\n", name, promFloat(v))
		return
	}
	p.printf("%s{%s} %s\n", name, labels, promFloat(v))
}

// summary emits one quantile histogram as a classic Prometheus summary
// (the quantile series plus _sum/_count) and a _max gauge for the tail.
// No exemplars: the classic format has no syntax for them, and
// OpenMetrics forbids them on summaries anyway. extra, when non-empty,
// is prepended to each series' label set.
func (p *promWriter) summary(name string, s *QSnapshot, extra string) {
	join := joinLabels(extra)
	sum := s.Summary()
	p.line(name, join(promLabel("quantile", "0.5")), sum.P50)
	p.line(name, join(promLabel("quantile", "0.9")), sum.P90)
	p.line(name, join(promLabel("quantile", "0.99")), sum.P99)
	p.line(name+"_sum", extra, sum.Sum)
	p.line(name+"_count", extra, float64(sum.Count))
	p.line(name+"_max", extra, sum.Max)
}

// qhistOM emits one quantile histogram as an OpenMetrics histogram:
// cumulative _bucket series at the upper bounds of the non-empty
// log-linear buckets (plus the mandatory +Inf bucket), each carrying
// its bucket's exemplar when one was recorded — the only sample kind
// OpenMetrics allows exemplars on. extra, when non-empty, is prepended
// to each series' label set.
func (p *promWriter) qhistOM(name string, s *QSnapshot, extra string) {
	join := joinLabels(extra)
	var cum int64
	for i := 0; i < qhistNBuckets-1; i++ {
		n := s.counts[i]
		ex, hasEx := s.exemplars[i]
		if n == 0 && !hasEx {
			continue
		}
		cum += n
		p.bucketLine(name+"_bucket", join(promLabel("le", promFloat(qhistUpper(i)))), float64(cum), ex, hasEx)
	}
	ex, hasEx := s.exemplars[qhistNBuckets-1]
	p.bucketLine(name+"_bucket", join(promLabel("le", "+Inf")), float64(s.count), ex, hasEx)
	p.line(name+"_sum", extra, s.sum)
	p.line(name+"_count", extra, float64(s.count))
}

// bucketLine is line plus an OpenMetrics exemplar
// (`# {trace_id="..."} value`) when the bucket has one.
func (p *promWriter) bucketLine(name, labels string, v float64, ex Exemplar, hasEx bool) {
	if !hasEx {
		p.line(name, labels, v)
		return
	}
	p.printf("%s{%s} %s # {trace_id=\"%s\"} %s\n",
		name, labels, promFloat(v), ex.TraceID.String(), promFloat(ex.Value))
}

// joinLabels returns a label joiner that prepends extra when non-empty.
func joinLabels(extra string) func(string) string {
	return func(q string) string {
		if extra == "" {
			return q
		}
		return extra + "," + q
	}
}

// promName maps a registry name onto the Prometheus metric charset.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r == '.' || r == '-' || r == '/' || r == ' ':
			b.WriteByte('_')
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabel renders one escaped label pair.
func promLabel(key, val string) string {
	val = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(val)
	return key + `="` + val + `"`
}

// promFloat renders a value the way Prometheus expects (shortest
// round-trip form; infinities as +Inf/-Inf).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type labelCount struct {
	k string
	v int64
}

func sortedLabels(m map[string]int64) []labelCount {
	out := make([]labelCount, 0, len(m))
	for k, v := range m {
		out = append(out, labelCount{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

type labelFloat struct {
	k string
	v float64
}

func sortedFloatLabels(m map[string]float64) []labelFloat {
	out := make([]labelFloat, 0, len(m))
	for k, v := range m {
		out = append(out, labelFloat{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

type labelSummary struct {
	k string
	v QSummary
}

func sortedSummaryLabels(m map[string]QSummary) []labelSummary {
	out := make([]labelSummary, 0, len(m))
	for k, v := range m {
		out = append(out, labelSummary{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

type labelSnapshot struct {
	k string
	v *QSnapshot
}

func sortedSnapshotLabels(m map[string]*QSnapshot) []labelSnapshot {
	out := make([]labelSnapshot, 0, len(m))
	for k, v := range m {
		out = append(out, labelSnapshot{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}
