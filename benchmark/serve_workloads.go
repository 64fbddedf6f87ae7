package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/tensor"
)

// serve_small_closed: lenet, where executing the model is about a third of
// a request and HTTP, JSON, admission, linger, split and tracing are the
// rest. A kernel speed-up should move this workload little.
const (
	smallModel   = "lenet"
	smallWarmup  = 300
	smallTimed   = 9000
	minServeReqs = 40
)

// setUpServer performs a serving workload's whole set-up — server, direct
// answers, warm-up — as often as set-up is repeated, keeping the last server.
func setUpServer(model string, rc runConfig, warmup int, res *results) (*served, error) {
	var s *served
	for i := 0; i < rc.setups(); i++ {
		if s != nil {
			// The earlier set-up was a timing sample only. Release and
			// collect it, so that peak_rss_mb is one server's footprint
			// and not however much of several the collector and the pack
			// cache happened to leave standing.
			s.stop()
			releasePacked(s.model.Graph)
			s = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if s, err = startServer(model, rc.seed, true); err != nil {
			return nil, err
		}
		s.directAnswers()
		warm, _ := s.closedLoop(context.Background(), rc.host, warmup, nil, span{}, 0)
		res.setupS = append(res.setupS, rc.host.since(t0))
		for j := range warm {
			if !warm[j].ok() {
				s.stop()
				return nil, fmt.Errorf("warm-up request %d failed (HTTP %d %s)", j, warm[j].status, warm[j].mismatch)
			}
		}
	}
	return s, nil
}

func scaled(n int, frac float64, floor int) int {
	return max(floor, int(math.Round(float64(n)*frac)))
}

// closedSummary reduces a closed-loop interval to the workload's metrics.
type closedSummary struct {
	rps, goodput, sloShare float64
	p50, p95, p99          float64
	n                      int
}

func summarizeClosed(replies []reply, wall time.Duration) closedSummary {
	var lat []float64
	good := 0
	for i := range replies {
		if !replies[i].ok() {
			continue
		}
		lat = append(lat, replies[i].ms())
		if replies[i].latency <= serveSLO {
			good++
		}
	}
	s := sorted(lat)
	return closedSummary{
		rps:      float64(len(lat)) / wall.Seconds(),
		goodput:  float64(good) / wall.Seconds(),
		sloShare: ratio(float64(good), float64(len(replies))),
		p50:      quantile(s, 0.50), p95: quantile(s, 0.95), p99: quantile(s, 0.99),
		n: len(lat),
	}
}

func runServeSmallClosed(rc runConfig, res *results) error {
	warmup := scaled(smallWarmup, rc.frac, minServeReqs)
	timed := scaled(smallTimed, rc.frac, 2*minServeReqs)
	res.counts["clients"] = nproc()
	res.counts["warmup_requests"] = warmup
	res.counts["timed_requests"] = timed
	s, err := setUpServer(smallModel, rc, warmup, res)
	if err != nil {
		return err
	}
	defer s.stop()

	ctx := context.Background()
	c0 := readCounters()
	before := s.snapshot()
	var replies []reply
	var wall time.Duration
	if rc.trace {
		plain, plainWall := s.closedLoop(ctx, rc.host, timed/2, nil, span{}, 0)
		countFailures(res, plain)
		before = s.snapshot()
		rec := newRecorder()
		root := rec.start("bench.serve_small_closed", span{}, 0)
		replies, wall = s.closedLoop(ctx, rc.host, timed/2, rec, root, 1)
		root.end()
		res.set("trace.overhead_share", summarizeClosed(replies, wall).p50/summarizeClosed(plain, plainWall).p50-1)
		if err := rec.finishTrace(rc, "serve_small_closed", res); err != nil {
			return err
		}
	} else {
		replies, wall = s.closedLoop(ctx, rc.host, timed, nil, span{}, 0)
	}
	after := s.snapshot()
	c0.delta(res)
	countFailures(res, replies)
	if err := checkServeExpected(rc, smallModel, s, res); err != nil {
		return err
	}

	cs := summarizeClosed(replies, wall)
	res.set("latency_p50_ms", cs.p50)
	res.set("latency_p95_ms", cs.p95)
	res.set("goodput_per_s", cs.goodput)
	res.set("serve_rps", cs.rps)
	res.set("serve_p50_ms", cs.p50)
	res.set("serve_p95_ms", cs.p95)
	if q := supportedTail(cs.n, 0.99); q >= 0.99 {
		res.set("serve_p99_ms", cs.p99)
	} else {
		res.note("serve_p99_ms not reported: %d samples support no more than p%g", cs.n, 100*q)
	}
	res.set("serve_slo_share", cs.sloShare)
	reportServer(res, replies, before, after)
	if rc.trace {
		hostMicro(rc, res)
		serveMicro(rc, s, res)
	}
	return nil
}

// serve_heavy_open: resnet18, where executing the model is most of a
// request, queueing and the runtime tuner matter and JSON is noise. The
// open loop shows the backlog a closed loop hides.
const (
	heavyModel   = "resnet18"
	heavyWarmup  = 60
	heavyStepLen = 5 * time.Second
	// heavyQuotedStep is the step whose median latency the end-to-end
	// metrics quote: the lightest one, where a request waits for nothing
	// but the server's own work and the host clock reads the host while it
	// is mostly idle. With nproc connections and ~12 ms a request, 80 rps
	// already runs at three quarters of capacity, where latency swings
	// several-fold with the arrival pattern and the host's mood; the
	// busier steps are reported per layer and cannot be held to a bound.
	heavyQuotedStep = 0
	// heavyIssueStep is the step the issue quotes serve_p50_ms and
	// serve_p95_ms at (80 rps). Goodput counts the steps up to it, which
	// the server sustains on any seed; serve_slo_share counts every step
	// but the overload one.
	heavyIssueStep = 2
)

// heavyRates is the fixed rate ladder, in requests per second.
var heavyRates = []float64{20, 40, 80, 120, 160}

func runServeHeavyOpen(rc runConfig, res *results) error {
	warmup := scaled(heavyWarmup, rc.frac, minServeReqs/2)
	stepLen := time.Duration(float64(heavyStepLen) * rc.frac)
	res.counts["connections"] = nproc()
	res.counts["warmup_requests"] = warmup
	res.counts["step_ms"] = int(stepLen / time.Millisecond)
	s, err := setUpServer(heavyModel, rc, warmup, res)
	if err != nil {
		return err
	}
	defer s.stop()

	sched := poissonSchedule(heavyRates, stepLen, serveBodies, tensor.NewRNG(rc.seed).Split(99))
	res.counts["scheduled_requests"] = len(sched)
	var rec *recorder
	var root span
	if rc.trace {
		rec = newRecorder()
		root = rec.start("bench.serve_heavy_open", span{}, 0)
	}
	c0 := readCounters()
	before := s.snapshot()
	replies, t0 := s.openLoop(context.Background(), rc.host, sched, stepLen, rec, root)
	root.end()
	after := s.snapshot()
	c0.delta(res)

	steps := stepReports(heavyRates, sched, replies)
	// In this workload a late, refused or unsent request is an SLO miss,
	// not a failed operation: overload is what the last step is for. Only
	// a wrong or undecodable answer, or a transport failure, fails.
	for i := range replies {
		r := &replies[i]
		res.attempted++
		if r.status == 0 || r.mismatch != "" {
			res.fail("request %d: status %d %s", i, r.status, r.mismatch)
		}
	}
	if err := checkServeExpected(rc, heavyModel, s, res); err != nil {
		return err
	}

	quoted, issue, last := &steps[heavyQuotedStep], &steps[heavyIssueStep], &steps[len(steps)-1]
	var due, good, goodSustained int
	var sustainedEnd time.Time
	maxRate := 0.0
	for i := range steps {
		if i < len(steps)-1 {
			due += steps[i].due
			good += steps[i].good
		}
		if i <= heavyIssueStep {
			goodSustained += steps[i].good
		}
		if steps[i].sustainable() {
			maxRate = steps[i].rate
		}
		res.note("step %g rps: due %d good %d failed %d backlog %d p50 %.1f ms p95 %.1f ms", steps[i].rate,
			steps[i].due, steps[i].good, steps[i].failed, steps[i].backlog, steps[i].p(0.50), steps[i].p(0.95))
	}
	for i := range replies {
		if r := &replies[i]; sched[i].step <= heavyIssueStep && r.status > 0 {
			if end := r.due.Add(r.latency); end.After(sustainedEnd) {
				sustainedEnd = end
			}
		}
	}
	res.set("latency_p50_ms", quoted.p(0.50))
	res.note("latency_p50_ms: the %g rps step, %d answered requests, from due time", quoted.rate, len(quoted.latMs))
	// The tail is quoted at the lightest step with ten samples beyond p95.
	for i := range steps {
		if supportedTail(len(steps[i].latMs), 0.95) >= 0.95 {
			res.set("latency_p95_ms", steps[i].p(0.95))
			res.note("latency_p95_ms: the %g rps step, %d answered requests, from due time", steps[i].rate, len(steps[i].latMs))
			break
		}
	}
	// Goodput in the word's own sense: answers that were right and within
	// the SLO, per second, over the steps up to 80 rps — from the start of
	// the schedule to the last answer of those steps, in wall time, because
	// the schedule and the SLO are wall time. What the saturated server
	// completes (serve.overload.answers_per_s) is the more sensitive number
	// and is reported per layer: on this host it spreads by 0.1 to 0.25
	// between runs of the same code, raw or on the host clock.
	res.set("goodput_per_s", float64(goodSustained)/sustainedEnd.Sub(t0).Seconds())
	lastStart := t0.Add(time.Duration(len(steps)-1) * stepLen)
	res.set("serve.overload.answers_per_s", float64(len(last.latMs))/rc.host.norm(lastStart, stepLen).Seconds())
	res.set("serve_p50_ms", issue.p(0.50))
	res.set("serve_p95_ms", issue.p(0.95))
	res.set("serve_slo_share", ratio(float64(good), float64(due)))
	res.set("serve_max_rate_rps", maxRate)
	res.set("serve.overload.slo_share", ratio(float64(last.good), float64(last.due)))
	var lag []float64
	backlog := 0
	for i := range steps {
		lag = append(lag, steps[i].lagMs...)
		backlog += steps[i].backlog
	}
	res.set("serve.gen.lag_p95_ms", quantile(sorted(lag), 0.95))
	res.set("serve.backlog.end", float64(backlog))
	reportServer(res, replies, before, after)
	if rc.trace {
		if err := rec.finishTrace(rc, "serve_heavy_open", res); err != nil {
			return err
		}
		hostMicro(rc, res)
		serveMicro(rc, s, res)
	}
	return nil
}
