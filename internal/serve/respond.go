package serve

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// TensorJSON is the wire form of a dense float32 tensor.
type TensorJSON struct {
	Dims []int     `json:"dims"`
	Data []float32 `json:"data"`
}

// InferRequest is the POST /v1/infer body. DeadlineMs optionally
// tightens the request's end-to-end deadline below the server's 4×SLO;
// the deadline propagates by context into the batcher, which expires
// late requests instead of executing them.
type InferRequest struct {
	Input      TensorJSON `json:"input"`
	DeadlineMs float64    `json:"deadline_ms,omitempty"`
}

// InferResponse is the POST /v1/infer reply: the output tensor plus the
// approximation configuration that produced it and the request's
// queue/execution breakdown.
type InferResponse struct {
	Output      TensorJSON `json:"output"`
	Config      string     `json:"config"`
	ConfigIndex int        `json:"config_index"`
	BatchItems  int        `json:"batch_items"`
	QueueMs     float64    `json:"queue_ms"`
	ExecMs      float64    `json:"exec_ms"`
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	start := time.Now()
	//lint:ignore spanend finishRequest ends the request span once latency and status are known
	sp := s.startRequestSpan(w, r)
	var sw0, al0 int
	if sp != nil {
		// Baseline tuner-event counters: a switch or drift alarm landing
		// while this request is in flight makes its trace "eventful".
		sw0, al0 = s.tuner.Switches(), s.tuner.DriftAlarms()
	}
	status := s.serveInfer(w, r, sp)
	s.finishRequest(sp, time.Since(start), status, sw0, al0)
}

// startRequestSpan opens the per-request root span when request tracing
// is enabled, continuing an inbound traceparent when one arrived, and
// echoes the request's identity in the response header so clients can
// report trace IDs. Returns nil — without touching the header or
// allocating — when tracing is disabled.
func (s *Server) startRequestSpan(w http.ResponseWriter, r *http.Request) *obs.Span {
	tr := s.cfg.Tracer
	if tr == nil {
		return nil
	}
	sp := tr.StartRemote(obs.Extract(r.Header), "serve:request")
	w.Header().Set(obs.TraceparentHeader, obs.FormatTraceparent(sp.Context()))
	return sp
}

// finishRequest ends the request's root span and makes the tail-sampling
// decision now that latency, status and tuner-event overlap are known.
// The latency histogram is fed here: with a trace-linked exemplar when
// the trace was kept, plain otherwise — so every exposed exemplar
// references a retrievable trace.
func (s *Server) finishRequest(sp *obs.Span, total time.Duration, status int, sw0, al0 int) {
	sec := total.Seconds()
	if sp == nil {
		if status == http.StatusOK {
			qRequest.Observe(sec)
		}
		return
	}
	sp.With("status", status)
	sp.End()
	tid := sp.TraceID()
	thr := s.slowNs.Load()
	v := obs.Verdict{
		Slow:     thr > 0 && total.Nanoseconds() >= thr,
		Errored:  status == http.StatusTooManyRequests || status >= http.StatusInternalServerError,
		Eventful: s.tuner.Switches() != sw0 || s.tuner.DriftAlarms() != al0,
	}
	kept := false
	if s.cfg.Sampler != nil {
		kept, _ = s.cfg.Sampler.Finish(tid, v)
	}
	if status != http.StatusOK {
		return
	}
	if kept {
		qRequest.ObserveExemplar(sec, tid)
	} else {
		qRequest.Observe(sec)
	}
}

// serveInfer is the request body of POST /v1/infer: admit, wait for the
// batcher's answer, reply. It returns the HTTP status it wrote.
func (s *Server) serveInfer(w http.ResponseWriter, r *http.Request, sp *obs.Span) int {
	p, cancel, status := s.admit(w, r, sp)
	if p == nil {
		return status
	}
	defer cancel()

	// The batcher owns the request now and answers exactly once —
	// including expiry against the context deadline.
	res := <-p.res
	if res.err != nil {
		if p.ctx.Err() != nil {
			s.stats.expired.Add(1)
			mExpired.Inc()
			obs.Flight().Event("serve.deadline_expired", "", sp.TraceID())
			obs.ReplyError(w, http.StatusGatewayTimeout, "deadline exceeded before execution")
			return http.StatusGatewayTimeout
		}
		s.stats.failed.Add(1)
		mFailed.Inc()
		obs.ReplyError(w, http.StatusInternalServerError, res.err.Error())
		return http.StatusInternalServerError
	}
	total := time.Since(p.enq)
	if total > s.cfg.SLO {
		s.stats.sloMisses.Add(1)
		mSLOMiss.Inc()
	}
	sp.With("config", res.cfgLabel).With("batch_items", res.batchItems)
	s.stats.served.Add(1)
	obs.ReplyJSON(w, http.StatusOK, InferResponse{
		Output:      TensorJSON{Dims: res.out.Shape().Dims(), Data: res.out.Data()},
		Config:      res.cfgLabel,
		ConfigIndex: res.cfgIdx,
		BatchItems:  res.batchItems,
		QueueMs:     res.queueWait.Seconds() * 1e3,
		ExecMs:      res.exec.Seconds() * 1e3,
	})
	return http.StatusOK
}
