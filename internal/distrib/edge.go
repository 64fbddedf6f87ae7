package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/tensor"
)

// Edge is one device of the fleet: it owns the full program binary and
// its local calibration inputs (a shard of the global set), plus a device
// model for performance/energy measurement. An Edge drives one protocol
// run from a single goroutine; build one with NewEdge.
type Edge struct {
	ID      int
	BaseURL string
	Program core.Program // shardable program (same binary as the server's)
	Device  *device.Device
	// Transport, when set, carries the edge's requests — the hook the
	// fault-injection harness uses.
	Transport http.RoundTripper
	// PollInterval paces the assignment/curve polling loops (default 20ms).
	PollInterval time.Duration
	// Failpoints injects protocol-step crashes for chaos testing.
	Failpoints Failpoints

	// opts holds the normalized install options. The edge reads only its
	// RequestTimeout (bound on every HTTP request), MaxRetries (retries
	// of a failed request before the run aborts) and RetryBase (first
	// backoff delay, doubling per retry with seeded jitter, capped at
	// 2s). Tuning options are not taken from here: the coordinator hands
	// them out at registration.
	opts    core.InstallOptions
	httpc   *http.Client
	rng     *tensor.RNG // backoff jitter stream, the only RNG an edge seeds itself
	attempt int         // logical-operation idempotency token counter

	// Client-side telemetry, reported best-effort to POST /v1/telemetry
	// at the end of Run. An Edge runs from a single goroutine, so the
	// counters are plain fields; the latency histogram is mergeable so
	// the coordinator can fold the fleet into one distribution.
	telRequests int64
	telRetries  int64
	telTimeouts int64
	telLat      *obs.QHistogram
}

// NewEdge builds an edge whose robustness knobs come from the install
// options (the same knobs the coordinator was built with); unset ones take
// core.InstallOptions' documented defaults.
func NewEdge(id int, baseURL string, p core.Program, dev *device.Device, opts core.InstallOptions) *Edge {
	return &Edge{ID: id, BaseURL: baseURL, Program: p, Device: dev, opts: opts.Norm(), telLat: obs.NewQHist()}
}

func (e *Edge) client() *http.Client {
	if e.httpc == nil {
		// Client-level timeout is a backstop; the per-request context
		// deadline in doOnce is the operative bound.
		e.httpc = &http.Client{
			Timeout:   e.opts.RequestTimeout + time.Second,
			Transport: e.Transport,
		}
	}
	return e.httpc
}

func (e *Edge) poll() time.Duration {
	if e.PollInterval > 0 {
		return e.PollInterval
	}
	return 20 * time.Millisecond
}

func (e *Edge) nextAttempt() int {
	e.attempt++
	return e.attempt
}

// Run executes the full edge-side protocol and returns the final curve.
// The context bounds the whole run, including both poll loops; cancel it
// or set a deadline to guarantee termination when the fleet cannot
// converge.
func (e *Edge) Run(ctx context.Context) (*pareto.Curve, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Jitter stream for backoff only: retry timing never touches the tuning
	// streams, whose seeds all come from the coordinator.
	e.rng = tensor.NewRNG(9001 + int64(e.ID)*7919)

	// Step 1: register, and take the fleet's tuning options from the
	// coordinator; only the device is the edge's own.
	var reg registerResp
	if err := e.post(ctx, "/v1/register", registerReq{EdgeID: e.ID, Attempt: e.nextAttempt()}, &reg); err != nil {
		return nil, err
	}
	o := core.InstallOptions{
		Options: core.Options{
			QoSMin: reg.QoSMin,
			Policy: core.KnobPolicy{AllowFP16: reg.AllowFP16},
			Seed:   reg.Seed,
		},
		Device:    e.Device,
		Objective: reg.Obj,
		NEdge:     reg.NEdge,
	}

	// Step 2: collect hardware-knob profiles on the shard and upload.
	if e.Failpoints.CrashBeforeProfiles {
		return nil, fmt.Errorf("edge %d: %w before profile upload", e.ID, ErrInjectedCrash)
	}
	if err := e.profileAndUpload(ctx, o, e.ID); err != nil {
		return nil, err
	}

	// Step 3: poll for the shortlist — picking up orphaned profile shards
	// of dead edges on the way — then validate this edge's slice and upload
	// the local Pareto set.
	var asn assignmentsResp
	for {
		// Reset before decoding: omitted JSON fields (like a reprofile
		// offer from a previous poll) must not survive into this iteration.
		asn = assignmentsResp{}
		if err := e.get(ctx, fmt.Sprintf("/v1/assignments?edge=%d", e.ID), &asn); err != nil {
			return nil, err
		}
		if asn.Reprofile != nil {
			if err := e.profileAndUpload(ctx, o, *asn.Reprofile); err != nil {
				return nil, err
			}
			continue
		}
		if asn.Ready {
			break
		}
		if err := sleepCtx(ctx, e.poll()); err != nil {
			return nil, err
		}
	}
	if e.Failpoints.CrashBeforeValidated {
		return nil, fmt.Errorf("edge %d: %w before validated upload", e.ID, ErrInjectedCrash)
	}
	if err := e.validateAndUpload(ctx, o, e.ID, asn.Shortlist); err != nil {
		return nil, err
	}

	// Step 4: poll for the final curve, revalidating orphaned slices of
	// dead edges on the way.
	for {
		var cr curveResp
		if err := e.get(ctx, fmt.Sprintf("/v1/curve?edge=%d", e.ID), &cr); err != nil {
			return nil, err
		}
		if cr.Revalidate != nil {
			if err := e.validateAndUpload(ctx, o, *cr.Revalidate, asn.Shortlist); err != nil {
				return nil, err
			}
			continue
		}
		if cr.Ready {
			e.reportTelemetry(ctx)
			return pareto.UnmarshalCurve(cr.Curve)
		}
		if err := sleepCtx(ctx, e.poll()); err != nil {
			return nil, err
		}
	}
}

// reportTelemetry uploads the edge's client-side telemetry — request,
// retry and timeout counts plus the full latency snapshot — to the
// coordinator. Best-effort: the payload is snapshotted before the
// request (so the upload does not count itself), and a failed upload is
// ignored — telemetry loss must never fail a run that already has its
// curve.
func (e *Edge) reportTelemetry(ctx context.Context) {
	req := edgeTelemetryReq{
		EdgeID:   e.ID,
		Requests: e.telRequests,
		Retries:  e.telRetries,
		Timeouts: e.telTimeouts,
		Latency:  e.telLat.Snapshot(),
	}
	_ = e.post(ctx, "/v1/telemetry", req, nil)
}

// profileAndUpload runs protocol step 1 for one unit — this edge's own, or
// a dead edge's it was offered — and uploads the profiles.
func (e *Edge) profileAndUpload(ctx context.Context, o core.InstallOptions, shard int) error {
	profs, err := core.ProfileShard(e.Program, o, shard, nil)
	if err != nil {
		return fmt.Errorf("distrib: edge %d shard %d: %w", e.ID, shard, err)
	}
	payload, err := profs.Marshal()
	if err != nil {
		return err
	}
	return e.post(ctx, "/v1/profiles", profilesReq{EdgeID: e.ID, Shard: &shard, Attempt: e.nextAttempt(), Profiles: payload}, nil)
}

// validateAndUpload runs protocol step 3 for one unit and uploads the local
// Pareto set.
func (e *Edge) validateAndUpload(ctx context.Context, o core.InstallOptions, slice int, shortlist []pareto.Point) error {
	pts, err := core.ValidateSlice(e.Program, o, slice, shortlist, nil)
	if err != nil {
		return fmt.Errorf("distrib: edge %d slice %d: %w", e.ID, slice, err)
	}
	return e.post(ctx, "/v1/validated", validatedReq{EdgeID: e.ID, Slice: &slice, Attempt: e.nextAttempt(), Points: pts}, nil)
}

// retryableError marks transport-level failures and 5xx responses, which
// the idempotent wire protocol makes safe to retry.
type retryableError struct{ err error }

func (r *retryableError) Error() string { return r.err.Error() }
func (r *retryableError) Unwrap() error { return r.err }

func (e *Edge) post(ctx context.Context, path string, req any, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return e.do(ctx, http.MethodPost, path, body, resp)
}

func (e *Edge) get(ctx context.Context, path string, resp any) error {
	return e.do(ctx, http.MethodGet, path, nil, resp)
}

// do issues one request with bounded retries: transport errors and 5xx
// responses back off exponentially (seeded jitter) and retry; 4xx and
// decode errors are permanent.
func (e *Edge) do(ctx context.Context, method, path string, body []byte, out any) error {
	var lastErr error
	for try := 0; ; try++ {
		if try > 0 {
			mClientRetries.Inc()
			e.telRetries++
			if err := sleepCtx(ctx, e.backoff(try)); err != nil {
				return fmt.Errorf("distrib: %s %s: %w (last error: %v)", method, path, err, lastErr)
			}
		}
		err := e.doOnce(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		var re *retryableError
		if !errors.As(err, &re) {
			return err
		}
		lastErr = err
		if ctx.Err() != nil {
			return fmt.Errorf("distrib: %s %s: %w (last error: %v)", method, path, ctx.Err(), lastErr)
		}
		if try >= e.opts.MaxRetries {
			return fmt.Errorf("distrib: %s %s: %d retries exhausted: %w", method, path, e.opts.MaxRetries, lastErr)
		}
	}
}

func (e *Edge) doOnce(ctx context.Context, method, path string, body []byte, out any) error {
	rctx, cancel := context.WithTimeout(ctx, e.opts.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, e.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	e.telRequests++
	start := time.Now()
	r, err := e.client().Do(req)
	e.telLat.Observe(time.Since(start).Seconds())
	if err != nil {
		if isTimeout(err) {
			mClientTimeouts.Inc()
			e.telTimeouts++
		}
		return &retryableError{fmt.Errorf("distrib: %s %s: %w", method, path, err)}
	}
	defer r.Body.Close()
	if r.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 1024))
		err := fmt.Errorf("distrib: %s %s: %s: %s", method, path, r.Status, msg)
		if r.StatusCode >= 500 {
			return &retryableError{err}
		}
		return err
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, r.Body)
		return nil
	}
	return json.NewDecoder(r.Body).Decode(out)
}

// backoff returns the delay before retry number try (1-based): the base
// doubles per retry with multiplicative jitter in [1,2), capped at 2s.
func (e *Edge) backoff(try int) time.Duration {
	d := e.opts.RetryBase << (try - 1)
	if max := 2 * time.Second; d > max {
		d = max
	}
	return d + time.Duration(e.rng.Float64()*float64(d))
}

// isTimeout reports whether a transport error is a deadline/timeout.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// sleepCtx sleeps for d or until the context is done, returning the
// context's error in the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
