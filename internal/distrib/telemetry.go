package distrib

import (
	"fmt"
	"net/http"
	"sort"

	"repro/internal/obs"
)

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
}

// handleTelemetry stores one edge's end-of-run client telemetry (last
// write per edge wins, so a restarted edge reports its final state).
func (c *Coordinator) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	var req edgeTelemetryReq
	if !obs.ReadJSON(w, r, &req) || !c.inFleet(w, "edge id", &req.EdgeID) {
		return
	}
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
	obs.ReplyJSON(w, http.StatusOK, fs)
}
