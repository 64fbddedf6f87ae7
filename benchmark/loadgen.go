package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/tensor"
)

// arrival is one scheduled request of the open loop.
type arrival struct {
	step int
	due  time.Duration // from the start of the schedule
	body int
}

// poissonSchedule lays out Poisson arrivals on an absolute timeline. Each
// step has exactly rate × stepLen arrivals at independent uniform times
// within it — a Poisson process given its count — so that every seed offers
// the same number of requests and only their spacing differs. The schedule
// depends on the seed alone, never on how the server responds.
func poissonSchedule(rates []float64, stepLen time.Duration, bodies int, rng *tensor.RNG) []arrival {
	var out []arrival
	for s, rate := range rates {
		start := time.Duration(s) * stepLen
		due := make([]float64, int(math.Round(rate*stepLen.Seconds())))
		for i := range due {
			due[i] = rng.Float64() * float64(stepLen)
		}
		sort.Float64s(due)
		for _, d := range due {
			out = append(out, arrival{step: s, due: start + time.Duration(d), body: len(out) % bodies})
		}
	}
	return out
}

// openLoop sends the schedule over nproc keep-alive connections. A worker
// takes the next arrival, waits until it is due and sends it; when every
// connection is busy past a due time the request goes out late, and its
// latency still counts from the due time. An arrival whose step has ended
// before a connection frees up is not sent: it is the step's backlog.
func (s *served) openLoop(ctx context.Context, host *hostClock, sched []arrival, stepLen time.Duration, rec *recorder, root span) ([]reply, time.Time) {
	replies := make([]reply, len(sched))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(sched) {
					return
				}
				a := sched[i]
				r := &replies[i]
				r.body = a.body
				r.due = t0.Add(a.due)
				stepEnd := t0.Add(time.Duration(a.step+1) * stepLen)
				if wait := time.Until(r.due); wait > 0 {
					time.Sleep(wait)
				}
				if !time.Now().Before(stepEnd) {
					r.status = -1
					continue
				}
				r.sent = time.Now()
				sp := rec.start("client.request", root, int64(i+1))
				s.post(ctx, r, i%serveSampled == 0)
				r.latency = time.Since(r.due)
				sp.end()
				recordServerSpans(rec, sp, int64(i+1), r)
			}
		}()
	}
	wg.Wait()
	settle(replies, host)
	return replies, t0
}

// stepReport is the outcome of one rate step.
type stepReport struct {
	rate            float64
	due, good       int       // requests due; answered 200, verified, within the SLO
	failed, backlog int       // refused or failed; never sent
	latMs           []float64 // latency from due time of the answered ones, ascending, host clock
	lagMs           []float64 // send time minus due time, host clock
}

func (sr *stepReport) p(q float64) float64 { return quantile(sr.latMs, q) }

// sustainable reports whether the step met the SLO on its p95 with no
// failure and a backlog of at most 1 % of its requests.
func (sr *stepReport) sustainable() bool {
	return sr.failed == 0 && float64(sr.backlog) <= 0.01*float64(sr.due) &&
		len(sr.latMs) > 0 && sr.p(0.95) <= float64(serveSLO)/1e6
}

func stepReports(rates []float64, sched []arrival, replies []reply) []stepReport {
	out := make([]stepReport, len(rates))
	for i := range out {
		out[i].rate = rates[i]
	}
	for i := range replies {
		r := &replies[i]
		sr := &out[sched[i].step]
		sr.due++
		switch {
		case r.status == -1:
			sr.backlog++
		case !r.ok():
			sr.failed++
		default:
			sr.latMs = append(sr.latMs, r.ms())
			sr.lagMs = append(sr.lagMs, float64(r.sent.Sub(r.due))/1e6/r.slow)
			if r.latency <= serveSLO {
				sr.good++
			}
		}
	}
	for i := range out {
		out[i].latMs = sorted(out[i].latMs)
	}
	return out
}
