package serve

import (
	"fmt"
	"net/http"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pareto"
)

// SpecResponse describes the serving endpoint (GET /v1/spec).
type SpecResponse struct {
	Program  string  `json:"program"`
	ItemDims []int   `json:"item_dims"`
	SLOMs    float64 `json:"slo_ms"`
	MaxBatch int     `json:"max_batch"`
	MaxQueue int     `json:"max_queue"`
	Policy   string  `json:"policy"`
	Points   int     `json:"points"`
}

func (s *Server) handleSpec(w http.ResponseWriter, _ *http.Request) {
	obs.ReplyJSON(w, http.StatusOK, SpecResponse{
		Program:  s.cfg.Curve.Program,
		ItemDims: s.cfg.ItemDims,
		SLOMs:    s.cfg.SLO.Seconds() * 1e3,
		MaxBatch: s.cfg.MaxBatch,
		MaxQueue: s.cfg.MaxQueue,
		Policy:   s.cfg.Policy.String(),
		Points:   s.cfg.Curve.Len(),
	})
}

// handleCurve installs a freshly calibrated tradeoff curve — the online
// answer to a latched drift alarm: recalibrate offline, POST the new
// curve, and the tuner resumes with reset health state and a released
// recalibration latch, without dropping a request.
func (s *Server) handleCurve(w http.ResponseWriter, r *http.Request) {
	body, ok := obs.ReadBody(w, r)
	if !ok {
		return
	}
	curve, err := pareto.UnmarshalCurve(body)
	if err != nil {
		obs.ReplyError(w, http.StatusBadRequest, fmt.Sprintf("bad curve: %v", err))
		return
	}
	if err := runnable(s.cfg.Graph, curve); err != nil {
		obs.ReplyError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if err := s.tuner.SwapCurve(curve); err != nil {
		obs.ReplyError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	gRecalNeeded.Set(0)
	// A fresh curve releases the latch, so re-arm the one-shot automatic
	// flight dumps for the next drift episode.
	s.driftLatched.Store(false)
	s.healthDumped.Store(false)
	obs.ReplyJSON(w, http.StatusOK, map[string]any{"swapped": true, "points": curve.Len()})
}

// healthzBody is the GET /healthz reply.
type healthzBody struct {
	Status              string              `json:"status"`
	Draining            bool                `json:"draining"`
	RecalibrationNeeded bool                `json:"recalibration_needed"`
	Drifting            []core.ConfigHealth `json:"drifting,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	h := s.tuner.Health()
	body := healthzBody{Status: "ok", Draining: draining, RecalibrationNeeded: h.RecalibrationNeeded}
	code := http.StatusOK
	switch {
	case draining:
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	case h.RecalibrationNeeded:
		body.Status = "recalibration_needed"
		body.Drifting = h.Drifting()
		code = http.StatusServiceUnavailable
	}
	if h.RecalibrationNeeded {
		gRecalNeeded.Set(1)
	} else {
		gRecalNeeded.Set(0)
	}
	// First transition into an unhealthy probe (drift, not drain): leave
	// a flight dump behind while the evidence is still in the ring.
	if code == http.StatusServiceUnavailable && !draining && s.healthDumped.CompareAndSwap(false, true) {
		obs.Flight().Event("serve.healthz_503", body.Status, obs.TraceID{})
		s.dumpFlight()
	}
	obs.ReplyJSON(w, code, body)
}

// dumpFlight writes one flight-recorder dump to the configured
// FlightLog, serialized against concurrent automatic dumps from other
// goroutines. No-op without a FlightLog.
func (s *Server) dumpFlight() {
	if s.cfg.FlightLog == nil {
		return
	}
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	_ = obs.Flight().Dump(s.cfg.FlightLog)
}

// StatzBody is the GET /statz reply: queue, counters, the active
// operating point, tuner health and the recent switch history.
type StatzBody struct {
	Program    string  `json:"program"`
	Policy     string  `json:"policy"`
	SLOMs      float64 `json:"slo_ms"`
	ExecBudget float64 `json:"exec_budget_ms"`
	Window     int     `json:"window"`
	MaxBatch   int     `json:"max_batch"`

	QueueDepth int  `json:"queue_depth"`
	QueueCap   int  `json:"queue_cap"`
	Draining   bool `json:"draining"`

	Requests  int64 `json:"requests"`
	Served    int64 `json:"served"`
	Rejected  int64 `json:"rejected"`
	Expired   int64 `json:"expired"`
	Failed    int64 `json:"failed"`
	SLOMisses int64 `json:"slo_misses"`
	Batches   int64 `json:"batches"`
	// LingerWaits counts the batches that waited for a request known to be
	// arriving, LingerExpired those of them the Linger bound cut short.
	LingerWaits   int64 `json:"linger_waits"`
	LingerExpired int64 `json:"linger_expired"`

	CurrentIndex  int     `json:"current_index"`
	CurrentPerf   float64 `json:"current_perf"`
	CurrentQoS    float64 `json:"current_qos"`
	CurrentConfig string  `json:"current_config"`

	Switches    int                `json:"switches"`
	CurveSwaps  int                `json:"curve_swaps"`
	SwitchTrace []core.SwitchEvent `json:"switch_trace"`
	Health      core.RuntimeHealth `json:"health"`

	// Sampler is the tail-sampler state (nil when tracing is disabled).
	Sampler *SamplerStats `json:"sampler,omitempty"`
}

// SamplerStats summarizes the tail sampler for /statz.
type SamplerStats struct {
	Seen    int64 `json:"seen"`    // finished traces decided
	Kept    int64 `json:"kept"`    // traces retained
	Evicted int64 `json:"evicted"` // undecided traces evicted under memory pressure
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	obs.ReplyJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the serving state (the /statz body).
func (s *Server) Stats() StatzBody {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	pt, idx := s.tuner.Acquire()
	trace := s.tuner.SwitchTrace()
	if len(trace) > 32 {
		trace = trace[len(trace)-32:]
	}
	var samp *SamplerStats
	if s.cfg.Sampler != nil {
		seen, kept, evicted := s.cfg.Sampler.Stats()
		samp = &SamplerStats{Seen: seen, Kept: kept, Evicted: evicted}
	}
	return StatzBody{
		Program:       s.cfg.Curve.Program,
		Policy:        s.cfg.Policy.String(),
		SLOMs:         s.cfg.SLO.Seconds() * 1e3,
		ExecBudget:    s.cfg.ExecBudget.Seconds() * 1e3,
		Window:        s.cfg.Window,
		MaxBatch:      s.cfg.MaxBatch,
		QueueDepth:    len(s.queue),
		QueueCap:      s.cfg.MaxQueue,
		Draining:      draining,
		Requests:      s.stats.requests.Load(),
		Served:        s.stats.served.Load(),
		Rejected:      s.stats.rejected.Load(),
		Expired:       s.stats.expired.Load(),
		Failed:        s.stats.failed.Load(),
		SLOMisses:     s.stats.sloMisses.Load(),
		Batches:       s.stats.batches.Load(),
		LingerWaits:   s.stats.lingerWaits.Load(),
		LingerExpired: s.stats.lingerExpired.Load(),
		CurrentIndex:  idx,
		CurrentPerf:   pt.Perf,
		CurrentQoS:    pt.QoS,
		CurrentConfig: configLabel(pt.Config),
		Switches:      s.tuner.Switches(),
		CurveSwaps:    s.tuner.CurveSwaps(),
		SwitchTrace:   trace,
		Health:        s.tuner.Health(),
		Sampler:       samp,
	}
}

func configLabel(cfg approx.Config) string {
	return cfg.FormatGroupCounts()
}
