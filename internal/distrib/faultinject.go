package distrib

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/tensor"
)

// ErrInjectedCrash marks an edge abort injected through Failpoints. Chaos
// tests match it with errors.Is to tell simulated crashes from real
// protocol failures.
var ErrInjectedCrash = errors.New("distrib: injected crash")

// Failpoints injects deterministic edge crashes at protocol steps —
// the process-death half of the chaos harness (the network half is
// FaultyTransport). A crashed edge's Run returns ErrInjectedCrash and
// never uploads, so its lease expires and the coordinator reassigns its
// work to the survivors.
type Failpoints struct {
	// CrashBeforeProfiles aborts the run after registration, before the
	// profile upload.
	CrashBeforeProfiles bool
	// CrashBeforeValidated aborts the run once the shortlist has arrived,
	// before the validated upload.
	CrashBeforeValidated bool
}

// FaultPlan is a seeded schedule of network faults. All probabilities are
// per-request in [0,1]; zero values inject nothing.
type FaultPlan struct {
	// Seed drives the fault schedule; the same plan replays bit-identically.
	Seed int64
	// DropProb: the request never reaches the server and the client sees
	// a transport error.
	DropProb float64
	// Err500Prob: the server processes the request, but the response is
	// replaced with a synthetic 500 — the client must retry an operation
	// whose side effect already applied (exercises idempotency).
	Err500Prob float64
	// DupProb: the request is delivered twice back-to-back (exercises
	// duplicate suppression).
	DupProb float64
	// MaxDelay: each delivery is delayed uniformly in [0, MaxDelay).
	MaxDelay time.Duration
}

// FaultyTransport is an http.RoundTripper that injects drops, delays,
// duplicates, and synthetic 500s per a seeded FaultPlan. It is safe for
// concurrent use; the fault schedule is drawn under a lock so a given
// (plan, request order) replays deterministically per goroutine
// interleaving.
type FaultyTransport struct {
	plan FaultPlan
	base http.RoundTripper

	mu  sync.Mutex
	rng *tensor.RNG
}

// NewFaultyTransport wraps base (nil means http.DefaultTransport) with a
// seeded fault schedule.
func NewFaultyTransport(plan FaultPlan, base http.RoundTripper) *FaultyTransport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &FaultyTransport{plan: plan, base: base, rng: tensor.NewRNG(plan.Seed)}
}

// faultDecision is one request's drawn schedule.
type faultDecision struct {
	drop   bool
	err500 bool
	dup    bool
	delay  time.Duration
}

func (t *FaultyTransport) decide() faultDecision {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d faultDecision
	if t.plan.DropProb > 0 && t.rng.Float64() < t.plan.DropProb {
		d.drop = true
	}
	if t.plan.Err500Prob > 0 && t.rng.Float64() < t.plan.Err500Prob {
		d.err500 = true
	}
	if t.plan.DupProb > 0 && t.rng.Float64() < t.plan.DupProb {
		d.dup = true
	}
	if t.plan.MaxDelay > 0 {
		d.delay = time.Duration(t.rng.Float64() * float64(t.plan.MaxDelay))
	}
	return d
}

// RoundTrip implements http.RoundTripper.
func (t *FaultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.decide()
	var body []byte
	if req.Body != nil {
		b, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		body = b
	}
	if d.delay > 0 {
		timer := time.NewTimer(d.delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	if d.drop {
		mFaultsInjected.Inc()
		return nil, fmt.Errorf("faultinject: dropped %s %s", req.Method, req.URL.Path)
	}
	if d.dup {
		mFaultsInjected.Inc()
		// First delivery: the server applies it, the response is discarded.
		if resp, err := t.base.RoundTrip(t.replay(req, body)); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	resp, err := t.base.RoundTrip(t.replay(req, body))
	if err != nil {
		return resp, err
	}
	if d.err500 {
		mFaultsInjected.Inc()
		// The server processed the request; the client only sees a 500.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return &http.Response{
			Status:     "500 Internal Server Error (injected)",
			StatusCode: http.StatusInternalServerError,
			Proto:      req.Proto,
			ProtoMajor: req.ProtoMajor,
			ProtoMinor: req.ProtoMinor,
			Header:     make(http.Header),
			Body:       io.NopCloser(strings.NewReader("faultinject: response replaced with 500")),
			Request:    req,
		}, nil
	}
	return resp, nil
}

// replay clones the request with a fresh body reader so it can be
// delivered more than once.
func (t *FaultyTransport) replay(req *http.Request, body []byte) *http.Request {
	clone := req.Clone(req.Context())
	if body != nil {
		clone.Body = io.NopCloser(bytes.NewReader(body))
		clone.ContentLength = int64(len(body))
		clone.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
	}
	return clone
}
