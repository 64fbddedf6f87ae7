package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteOpenMetrics writes every metric of the registry in the OpenMetrics
// 1.0 text format, ordered by metric name so the output is deterministic
// for a given registry state, and terminated by the mandatory `# EOF`:
//
//   - Counter      → counter, its sample carrying the `_total` suffix
//   - Gauge        → gauge
//   - CounterVec   → counter with a `key` label per family member
//   - GaugeVec     → gauge with a `key` label per family member
//   - QHistogram   → histogram: cumulative `_bucket{le=...}` series over
//     the log-linear buckets actually touched, plus a `<name>_max` gauge
//     for the tail
//   - QHistVec     → histogram with a `key` label per family member
//
// Histograms rather than summaries, because OpenMetrics allows exemplars
// only on histogram buckets and counters: each bucket line carries its
// recorded exemplar (`# {trace_id="…"} value`), and quantiles come from
// histogram_quantile() over the buckets.
//
// Metric names are mangled dots-to-underscores ("runtime.drift_alarms"
// → "runtime_drift_alarms"), which maps the project's snake_case dotted
// naming convention onto Prometheus' [a-zA-Z_:] charset exactly.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	pw := &promWriter{w: w}
	for _, mr := range r.readAll() {
		pn := promName(mr.name)
		label := func(rd reading) string {
			if !mr.family {
				return ""
			}
			return promLabel("key", rd.key)
		}
		switch mr.kind {
		case kindCounter:
			pw.typ(pn, "counter")
			total := pn + "_total"
			for _, rd := range mr.series {
				pw.line(total, float64(rd.n), label(rd))
			}
		case kindGauge:
			pw.typ(pn, "gauge")
			for _, rd := range mr.series {
				pw.line(pn, rd.f, label(rd))
			}
		case kindQHist:
			pw.typ(pn, "histogram")
			for _, rd := range mr.series {
				pw.histogram(pn, rd.h, label(rd))
			}
			// The tail maximum is its own gauge family: _max is not a
			// histogram sample suffix the OpenMetrics grammar knows.
			pw.typ(pn+"_max", "gauge")
			for _, rd := range mr.series {
				pw.line(pn+"_max", rd.h.Max(), label(rd))
			}
		}
	}
	pw.printf("# EOF\n")
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

// line writes one sample; empty label pairs are skipped.
func (p *promWriter) line(name string, v float64, labels ...string) {
	p.sample(name, v, "", labels...)
}

// sample is line with a suffix after the value (an OpenMetrics exemplar).
func (p *promWriter) sample(name string, v float64, suffix string, labels ...string) {
	set := ""
	for _, l := range labels {
		if l != "" && set != "" {
			set += ","
		}
		set += l
	}
	if set != "" {
		name += "{" + set + "}"
	}
	p.printf("%s %s%s\n", name, promFloat(v), suffix)
}

// histogram emits one quantile histogram as an OpenMetrics histogram:
// cumulative _bucket series at the upper bounds of the non-empty
// log-linear buckets (plus the mandatory +Inf bucket), each carrying
// its bucket's exemplar (`# {trace_id="..."} value`) when one was
// recorded — the only sample kind OpenMetrics allows exemplars on.
// extra, when non-empty, is prepended to each series' label set.
func (p *promWriter) histogram(name string, s *QSnapshot, extra string) {
	var cum int64
	for i := 0; i < qhistNBuckets; i++ {
		ex, hasEx := s.exemplars[i]
		if s.counts[i] == 0 && !hasEx && i < qhistNBuckets-1 {
			continue
		}
		cum += s.counts[i]
		suffix := ""
		if hasEx {
			suffix = fmt.Sprintf(" # {trace_id=\"%s\"} %s", ex.TraceID, promFloat(ex.Value))
		}
		p.sample(name+"_bucket", float64(cum), suffix, extra, promLabel("le", promFloat(qhistUpper(i))))
	}
	p.line(name+"_sum", s.sum, extra)
	p.line(name+"_count", float64(s.count), extra)
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
