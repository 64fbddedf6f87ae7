package serve

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/approx"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Serving telemetry. Queue and latency state lands on /metrics
// (OpenMetrics); per-server counts live in Server.stats for /statz.
var (
	mRejectedFull  = obs.NewCounter("serve.rejected_full")
	mRejectedDrain = obs.NewCounter("serve.rejected_draining")
	mExpired       = obs.NewCounter("serve.deadline_expired")
	mFailed        = obs.NewCounter("serve.failures")
	mBatches       = obs.NewCounter("serve.batches")
	mSLOMiss       = obs.NewCounter("serve.slo_misses")
	mLingerWaits   = obs.NewCounter("serve.linger_waits")
	mLingerExpired = obs.NewCounter("serve.linger_expired")

	gQueueDepth  = obs.NewGauge("serve.queue_depth")
	gRecalNeeded = obs.NewGauge("serve.recalibration_needed")

	qRequest    = obs.NewQHistogram("serve.request_seconds")
	qQueueWait  = obs.NewQHistogram("serve.queue_wait_seconds")
	qExec       = obs.NewQHistogram("serve.exec_seconds")
	qBatchItems = obs.NewQHistogram("serve.batch_items")
	qConfigExec = obs.NewQHistVec("serve.config_exec_seconds")
	// qItemsExec is the batch execution time by item count (at most
	// MaxBatch label values): the process's own measured t(items) curve.
	qItemsExec = obs.NewQHistVec("serve.items_exec_seconds")
)

// stats is the per-server request accounting behind /statz.
type stats struct {
	requests  atomic.Int64
	served    atomic.Int64
	rejected  atomic.Int64
	expired   atomic.Int64
	failed    atomic.Int64
	sloMisses atomic.Int64
	batches   atomic.Int64
	// lingerWaits counts batches whose collection waited for a request
	// known to be arriving; lingerExpired those of them that the Linger
	// bound, not the arrival, ended.
	lingerWaits   atomic.Int64
	lingerExpired atomic.Int64
}

// pending is one admitted inference request waiting for its batch.
type pending struct {
	in    *tensor.Tensor
	items int
	ctx   context.Context
	enq   time.Time
	res   chan result // buffered(1); the batcher sends exactly once
	// sc is the request span's identity (zero when tracing is off); the
	// batch span links each member's trace through it.
	sc obs.SpanContext
}

// result is the batcher's answer to one pending request.
type result struct {
	out        *tensor.Tensor
	cfgIdx     int
	cfgLabel   string
	batchItems int
	queueWait  time.Duration
	exec       time.Duration
	err        error
}

type admitState int

const (
	admitOK admitState = iota
	admitFull
	admitDraining
)

// enqueue admits a request into the bounded queue without blocking.
// The enqWG bracket makes Shutdown's close(queue) safe: the drain flag
// is checked under the same lock that Shutdown sets it under, so once
// enqWG.Wait returns no admission can touch the channel.
func (s *Server) enqueue(p *pending) admitState {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return admitDraining
	}
	s.enqWG.Add(1)
	s.mu.Unlock()
	defer s.enqWG.Done()
	select {
	case s.queue <- p:
		gQueueDepth.Set(float64(len(s.queue)))
		return admitOK
	default:
		return admitFull
	}
}

// arrived retires one known arrival: the handler that counted itself in
// s.arriving has either enqueued its request or answered it with a
// refusal. The poke wakes a batcher that is waiting for exactly this
// request, so that a refusal — which never reaches the queue — does not
// cost the forming batch the rest of its Linger.
func (s *Server) arrived() {
	s.arriving.Add(-1)
	select {
	case s.poke <- struct{}{}:
	default:
	}
}

// loop is the micro-batcher: it blocks for the first request of a
// batch, collects the followers that are queued or known to be arriving,
// and executes the batch under the tuner's current configuration. It
// exits when Shutdown closes the queue, after executing everything
// already admitted — including a request held over from a batch it would
// have overflowed.
func (s *Server) loop() {
	defer close(s.loopDone)
	for {
		first := s.held
		s.held = nil
		if first == nil {
			var ok bool
			first, ok = <-s.queue
			if !ok {
				return
			}
		}
		batch, lingered := s.collect(first)
		gQueueDepth.Set(float64(len(s.queue)))
		s.runBatch(batch, lingered)
	}
}

// collect gathers requests for one batch, up to MaxBatch items, and
// returns them with the time it spent waiting. It is work-conserving:
// everything already queued is taken without blocking, and it waits only
// while some handler holds a complete request body it has not yet
// enqueued or refused (s.arriving > 0) — never for a request that may or
// may not be sent — and for at most Linger per batch, so that a
// descheduled handler cannot hold the executor. An idle server therefore
// dispatches a lone request at once and arms no timer. During drain the
// closed queue yields immediately, so the tail flushes without waiting.
func (s *Server) collect(first *pending) ([]*pending, time.Duration) {
	reqs := []*pending{first}
	items := first.items
	var (
		timer   *time.Timer // armed by the first actual wait
		waitAt  time.Time
		expired bool
	)
collecting:
	for items < s.cfg.MaxBatch {
		var p *pending
		var open bool
		select {
		case p, open = <-s.queue:
		default:
			if s.arriving.Load() == 0 {
				break collecting
			}
			if timer == nil {
				timer = time.NewTimer(s.cfg.Linger)
				defer timer.Stop()
				waitAt = time.Now()
			}
			select {
			case p, open = <-s.queue:
			case <-s.poke:
				continue // an arrival was enqueued or refused: look again
			case <-timer.C:
				expired = true
				break collecting
			}
		}
		if !open {
			break
		}
		if items+p.items > s.cfg.MaxBatch {
			// Would overflow the batch: hold it as the seed of the next
			// one. The hold slot belongs to the loop goroutine, so an
			// admitted request survives even if the queue is closed for
			// drain before the next iteration.
			s.held = p
			break
		}
		reqs = append(reqs, p)
		items += p.items
	}
	if timer == nil {
		return reqs, 0
	}
	s.stats.lingerWaits.Add(1)
	mLingerWaits.Inc()
	if expired {
		s.stats.lingerExpired.Add(1)
		mLingerExpired.Inc()
	}
	return reqs, time.Since(waitAt)
}

// runBatch executes one coalesced batch under the configuration the
// tuner currently selects and answers every request in it exactly once.
func (s *Server) runBatch(reqs []*pending, lingered time.Duration) {
	start := time.Now()
	// Expire requests whose deadline passed while queued: executing
	// them wastes batch capacity on an answer nobody is waiting for.
	live := reqs[:0]
	for _, p := range reqs {
		if p.ctx.Err() != nil {
			p.res <- result{err: p.ctx.Err()}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	parts, shared, err := s.executeBatch(live, start, lingered)
	if err != nil {
		s.fail(live, err)
		return
	}
	for i, p := range live {
		wait := start.Sub(p.enq)
		qQueueWait.Observe(wait.Seconds())
		res := shared
		res.out = parts[i]
		res.queueWait = wait
		p.res <- res
	}
}

// executeBatch runs one coalesced batch and returns the per-request
// output parts plus the shared result fields. When tracing is enabled
// it wraps the work in a serve:batch span that links every member
// request's trace, with serve:execute and serve:tuner children.
func (s *Server) executeBatch(live []*pending, start time.Time, lingered time.Duration) ([]*tensor.Tensor, result, error) {
	var bsp *obs.Span
	if tr := s.cfg.Tracer; tr != nil {
		bsp = tr.Start("serve:batch").With("lingered_ms", lingered.Seconds()*1e3)
		for _, p := range live {
			bsp.Link(p.sc.TraceID)
		}
	}
	defer bsp.End()

	pt, idx := s.tuner.Acquire()
	inputs := make([]*tensor.Tensor, len(live))
	items := 0
	for i, p := range live {
		inputs[i] = p.in
		items += p.items
	}
	batch, sizes, err := graph.ConcatBatch(inputs)
	if err != nil {
		return nil, result{}, err
	}
	esp := bsp.Child("serve:execute")
	out, err := s.execute(batch, pt.Config, esp)
	esp.End()
	if err != nil {
		return nil, result{}, err
	}
	wall := time.Since(start)
	// One batch execution is one tuner invocation: the measured latency
	// is attributed to the curve index acquired above, so a sample can
	// never be credited to a configuration that did not produce it —
	// even if the controller switches while this batch is in flight.
	exec := wall.Seconds()
	if s.cfg.MeasureExec != nil {
		exec = s.cfg.MeasureExec(pt.Config, items)
	}
	// The tuner's budget is calibrated for a full batch, but execution
	// cost is roughly linear in items: feed it the full-batch-equivalent
	// time so a half-empty batch on an idle server doesn't read as a 2x
	// "fast drift" (latching a spurious recalibration alarm), and a real
	// slowdown shows the same ratio at any occupancy. At full batches
	// the factor is 1, so the loaded-system control signal is unchanged.
	normExec := exec * float64(s.cfg.MaxBatch) / float64(items)
	tsp := bsp.Child("serve:tuner")
	s.tuner.RecordInvocationAt(idx, normExec)
	recal := s.tuner.RecalibrationNeeded()
	tsp.End()

	parts, err := graph.SplitBatch(out, sizes)
	if err != nil {
		return nil, result{}, err
	}

	label := configLabel(pt.Config)
	bsp.With("config", label).With("items", items)
	s.stats.batches.Add(1)
	mBatches.Inc()
	qExec.Observe(exec)
	qBatchItems.Observe(float64(items))
	qConfigExec.With(label).Observe(exec)
	qItemsExec.With(strconv.Itoa(items)).Observe(exec)
	if recal {
		gRecalNeeded.Set(1)
		// First drift latch: leave an automatic flight dump behind while
		// the spans and events that led up to it are still in the ring.
		if s.driftLatched.CompareAndSwap(false, true) {
			obs.Flight().Event("serve.drift_latch", label, obs.TraceID{})
			s.dumpFlight()
		}
	}
	s.mu.Lock()
	s.trace = append(s.trace, idx)
	if len(s.trace) > maxBatchTrace {
		s.trace = s.trace[len(s.trace)-maxBatchTrace:]
	}
	s.mu.Unlock()

	return parts, result{
		cfgIdx:     idx,
		cfgLabel:   label,
		batchItems: items,
		exec:       wall,
	}, nil
}

// maxBatchTrace bounds the retained per-batch configuration trace.
const maxBatchTrace = 65536

// execute runs the graph, converting an executor panic (malformed
// input, knob misuse) into an error so one poisoned request cannot take
// down the batcher. sp, when non-nil, traces the execution (per-node
// children subject to the tracer's detail budget).
func (s *Server) execute(batch *tensor.Tensor, cfg approx.Config, sp *obs.Span) (out *tensor.Tensor, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: execution failed: %v", r)
		}
	}()
	return s.cfg.Graph.Execute(batch, cfg, graph.ExecOptions{RNG: s.rng, Trace: sp}), nil
}

func (s *Server) fail(reqs []*pending, err error) {
	for _, p := range reqs {
		p.res <- result{err: err}
	}
}
