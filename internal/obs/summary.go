package obs

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// WriteSummary renders the registry as an end-of-run telemetry table:
// one row per metric (vec families expand to one row per label), sorted
// by name. Counters and gauges print their value; quantile histograms
// print count, p50/p90/p99 and max.
// reg nil means the Default registry.
func WriteSummary(w io.Writer, reg *Registry) error {
	if reg == nil {
		reg = Default
	}
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tvalue\n")
	for _, name := range names {
		switch v := snap[name].(type) {
		case int64:
			fmt.Fprintf(tw, "%s\t%d\n", name, v)
		case float64:
			fmt.Fprintf(tw, "%s\t%g\n", name, v)
		case map[string]int64:
			for _, kv := range sortedLabels(v) {
				fmt.Fprintf(tw, "%s{%s}\t%d\n", name, kv.k, kv.v)
			}
		case map[string]float64:
			for _, kv := range sortedFloatLabels(v) {
				fmt.Fprintf(tw, "%s{%s}\t%g\n", name, kv.k, kv.v)
			}
		case QSummary:
			fmt.Fprintf(tw, "%s\t%s\n", name, formatQSummary(v))
		case map[string]QSummary:
			for _, kv := range sortedSummaryLabels(v) {
				fmt.Fprintf(tw, "%s{%s}\t%s\n", name, kv.k, formatQSummary(kv.v))
			}
		}
	}
	return tw.Flush()
}

func formatQSummary(s QSummary) string {
	return fmt.Sprintf("n=%d p50=%.4g p90=%.4g p99=%.4g max=%.4g",
		s.Count, s.P50, s.P90, s.P99, s.Max)
}
