package distrib

import (
	"fmt"
	"net/http"
	"slices"
	"sort"

	"repro/internal/obs"
)

// maxCoordSpans bounds the coordinator-side trace ring; once full the
// oldest record is overwritten, so a long-lived coordinator keeps the
// most recent fleet activity.
const maxCoordSpans = 512

// maxUploadSpans bounds the span records one telemetry upload carries, and
// what the coordinator keeps of one.
const maxUploadSpans = 256

// newestSpans keeps the last maxUploadSpans records, in an array of their
// own: edge:run ends last, and a trace without its root is headless.
func newestSpans(recs []obs.SpanRecord) []obs.SpanRecord {
	if n := len(recs); n > maxUploadSpans {
		return slices.Clone(recs[n-maxUploadSpans:])
	}
	return recs
}

// Fleet-telemetry wire types.

// edgeTelemetryReq is the best-effort end-of-run upload each edge sends
// to POST /v1/telemetry: client-side request/retry/timeout counts and
// the full (mergeable) latency snapshot.
type edgeTelemetryReq struct {
	EdgeID   int            `json:"edge_id"`
	Requests int64          `json:"requests"`
	Retries  int64          `json:"retries"`
	Timeouts int64          `json:"timeouts"`
	Latency  *obs.QSnapshot `json:"latency,omitempty"`
	// Spans are the run's completed client-side span records (at most
	// maxUploadSpans of them), keyed into FleetStats.Traces by trace ID.
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

// EdgeStats is one edge's client-side view in the fleet stats.
type EdgeStats struct {
	Requests int64        `json:"requests"`
	Retries  int64        `json:"retries"`
	Timeouts int64        `json:"timeouts"`
	Latency  obs.QSummary `json:"latency"`
}

// FleetStats is the GET /v1/stats response: per-edge client telemetry
// with fleet-wide totals (edge latency snapshots merged exactly, not
// approximated from summaries). The coordinator's own per-route counts
// are on its /metrics (http.server_seconds, http.responses).
type FleetStats struct {
	Edges         map[string]EdgeStats `json:"edges"`
	TotalRequests int64                `json:"total_requests"`
	TotalRetries  int64                `json:"total_retries"`
	TotalTimeouts int64                `json:"total_timeouts"`
	EdgeLatency   obs.QSummary         `json:"edge_latency"`
	// Traces assembles the cross-process traces the coordinator knows
	// about — client-side spans uploaded with edge telemetry merged with
	// the coordinator's own server-side records — keyed by trace ID and
	// sorted by start offset within each trace.
	Traces map[string][]obs.SpanRecord `json:"traces,omitempty"`
}

// handleTelemetry stores one edge's end-of-run client telemetry (last
// write per edge wins, so a restarted edge reports its final state), and
// of its spans only the newest maxUploadSpans, whatever the edge sent.
func (c *Coordinator) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	var req edgeTelemetryReq
	if !obs.ReadJSON(w, r, &req) || !c.inFleet(w, "edge id", &req.EdgeID) {
		return
	}
	req.Spans = newestSpans(req.Spans)
	c.mu.Lock()
	c.touchLocked(req.EdgeID)
	c.edgeTel[req.EdgeID] = req
	c.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleStats serves the aggregated fleet telemetry.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	tel := make([]edgeTelemetryReq, 0, len(c.edgeTel))
	for _, t := range c.edgeTel {
		tel = append(tel, t)
	}
	c.mu.Unlock()
	sort.Slice(tel, func(i, j int) bool { return tel[i].EdgeID < tel[j].EdgeID })

	fs := FleetStats{Edges: make(map[string]EdgeStats, len(tel))}
	merged := obs.NewQHist().Snapshot()
	for _, t := range tel {
		es := EdgeStats{Requests: t.Requests, Retries: t.Retries, Timeouts: t.Timeouts}
		if t.Latency != nil {
			es.Latency = t.Latency.Summary()
			merged.Merge(t.Latency)
		}
		fs.Edges[fmt.Sprintf("%d", t.EdgeID)] = es
		fs.TotalRequests += t.Requests
		fs.TotalRetries += t.Retries
		fs.TotalTimeouts += t.Timeouts
	}
	fs.EdgeLatency = merged.Summary()
	fs.Traces = c.assembleTraces(tel)
	obs.ReplyJSON(w, http.StatusOK, fs)
}

// assembleTraces merges the coordinator's server-side span records with
// the client-side spans each edge uploaded, grouped by trace ID. Spans
// within a trace are sorted by start offset (client and server clocks
// have different bases, so ordering is per-process best-effort; span
// parentage carries the authoritative structure).
func (c *Coordinator) assembleTraces(tel []edgeTelemetryReq) map[string][]obs.SpanRecord {
	traces := make(map[string][]obs.SpanRecord)
	for _, rec := range c.tracer.Records() {
		tid := rec.TraceID.String()
		traces[tid] = append(traces[tid], rec)
	}
	for _, t := range tel {
		for _, rec := range t.Spans {
			if rec.TraceID.IsZero() {
				continue
			}
			tid := rec.TraceID.String()
			traces[tid] = append(traces[tid], rec)
		}
	}
	for _, spans := range traces {
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	}
	if len(traces) == 0 {
		return nil
	}
	return traces
}
