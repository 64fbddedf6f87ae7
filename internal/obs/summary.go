package obs

import (
	"fmt"
	"io"
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
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tvalue\n")
	for _, mr := range reg.readAll() {
		for _, rd := range mr.series {
			name := mr.name
			if mr.family {
				name += "{" + rd.key + "}"
			}
			switch rd.kind {
			case kindCounter:
				fmt.Fprintf(tw, "%s\t%d\n", name, rd.n)
			case kindGauge:
				fmt.Fprintf(tw, "%s\t%g\n", name, rd.f)
			case kindQHist:
				fmt.Fprintf(tw, "%s\tn=%d p50=%.4g p90=%.4g p99=%.4g max=%.4g\n",
					name, rd.h.Count(), rd.h.P50(), rd.h.P90(), rd.h.P99(), rd.h.Max())
			}
		}
	}
	return tw.Flush()
}
