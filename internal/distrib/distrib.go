// Package distrib carries ApproxTuner's distributed install-time tuning
// protocol (§4) over HTTP + JSON. The protocol itself — what an edge
// profiles, what the server searches, what an edge validates, how the final
// curve is formed, and every seed involved — is internal/core's four
// exported steps (ProfileShard, SearchShortlist, ValidateSlice, FinalCurve),
// the same functions core.InstallTune's goroutine fleet calls; this package
// holds no tuning logic of its own, so for equal options a fault-free HTTP
// fleet ships a curve byte-identical to InstallTune's
// (TestHTTPMatchesInProcessInstallTune). What it adds is what a network
// needs:
//
//  1. each edge registers and receives the fleet's tuning options — seed,
//     fleet size, QoS threshold, objective — from the coordinator
//     (POST /v1/register), so no edge can be configured to disagree;
//  2. each edge runs core.ProfileShard for its unit and uploads the result
//     (POST /v1/profiles); once all shards arrive, the coordinator runs
//     core.SearchShortlist, outside its lock, so polls and lease renewals
//     go on while it searches;
//  3. each edge polls for the shortlist (GET /v1/assignments), runs
//     core.ValidateSlice for its unit, and uploads its local Pareto set
//     (POST /v1/validated);
//  4. the coordinator hands the per-unit sets to core.FinalCurve, and edges
//     fetch the result with GET /v1/curve.
//
// Fault model: edges crash, restart, and sit behind lossy links. Every
// registration carries a liveness lease that is renewed by any request
// from that edge; when a lease expires before the edge's profile or
// validation upload, the coordinator re-offers the orphaned work unit to
// the next live edge that polls, so the fleet converges with any subset
// of survivors. A unit's result depends on the unit number alone, never on
// who computes it, so a takeover reproduces the dead owner's bytes. Uploads
// carry attempt tokens and are applied first-write-wins, making retried and
// duplicated POSTs idempotent. The edge client (edge.go) retries with seeded
// exponential backoff, bounds every request with a timeout, and threads a
// context through both poll loops so nothing can spin forever.
package distrib

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/predictor"
)

// Coordinator is the central server of the protocol. It owns the full
// program (for the server-side search), the shipped development-time
// profiles, and the install options.
type Coordinator struct {
	prog     core.Program
	devProfs *predictor.Profiles
	opts     core.InstallOptions

	// Now is the coordinator's clock; tests may inject a fake. Nil means
	// time.Now. Set before serving, not after.
	Now func() time.Time

	mu        sync.Mutex
	started   time.Time                   // first registration; anchors no-show expiry
	edges     map[int]*edgeLease          // edgeID → liveness lease
	seen      map[string]bool             // applied idempotency tokens
	prof      *phase[*predictor.Profiles] // step 2: one profile shard per unit
	val       *phase[[]pareto.Point]      // step 3: one validated slice per unit
	shortlist []pareto.Point
	searchErr error
	searched  bool
	final     *pareto.Curve
	edgeTel   map[int]edgeTelemetryReq // edgeID → end-of-run client telemetry
}

// edgeLease tracks one edge's liveness.
type edgeLease struct {
	expires time.Time
	epoch   int  // incremented when the edge re-registers after expiry
	expired bool // lease expiry already observed (metric fires once)
}

// phase is the work-unit table of one edge step — profile shards or
// validation slices. Unit u starts owned by edge u; a lease expiry hands
// it to another edge (orphan), and its first result is kept (put).
type phase[T any] struct {
	owner  []int
	done   []bool
	result []T
	left   int // units not yet done
}

func newPhase[T any](n int) *phase[T] {
	p := &phase[T]{owner: make([]int, n), done: make([]bool, n), result: make([]T, n), left: n}
	for u := range p.owner {
		p.owner[u] = u
	}
	return p
}

// put records v as unit u's result unless the unit already has one —
// first write wins — and reports whether it completed the step. Exactly
// one put completes it, since a done unit is never written again.
func (p *phase[T]) put(u int, v T) bool {
	if p.done[u] {
		mRedundantUploads.Inc()
		return false
	}
	p.done[u], p.result[u] = true, v
	p.left--
	return p.left == 0
}

// orphan hands the polling edge the lowest unfinished unit whose owner is
// that edge or dead. The poller owning the unit means an earlier offer to
// it went unanswered (it only polls between work); it is offered again.
func (p *phase[T]) orphan(poller int, dead func(owner int) bool) (int, bool) {
	for u, owner := range p.owner {
		if !p.done[u] && (owner == poller || dead(owner)) {
			p.owner[u] = poller
			return u, true
		}
	}
	return 0, false
}

// NewCoordinator builds a coordinator for a fleet of opts.NEdge devices.
// Unset options take core.InstallOptions' defaults; options no fleet can run
// (no device model, an unshardable program for several edges) are refused
// here, as core.InstallTune refuses them.
func NewCoordinator(p core.Program, devProfiles *predictor.Profiles, opts core.InstallOptions) (*Coordinator, error) {
	opts, err := opts.ForFleet(p)
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		prog:     p,
		devProfs: devProfiles,
		opts:     opts,
		edges:    make(map[int]*edgeLease),
		seen:     make(map[string]bool),
		prof:     newPhase[*predictor.Profiles](opts.NEdge),
		val:      newPhase[[]pareto.Point](opts.NEdge),
		edgeTel:  make(map[int]edgeTelemetryReq),
	}, nil
}

func (c *Coordinator) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

// Wire types.

type registerReq struct {
	EdgeID int `json:"edge_id"`
	// Attempt is the edge's logical-operation token: retries of the same
	// registration reuse it, so the coordinator can tell a retransmit from
	// a fresh registration.
	Attempt int `json:"attempt,omitempty"`
}

// registerResp hands the edge the fleet's tuning options — everything
// core.ProfileShard and core.ValidateSlice read besides the edge's own
// device — so the whole fleet works from the coordinator's values.
type registerResp struct {
	Seed      int64          `json:"seed"`
	NEdge     int            `json:"n_edge"`
	AllowFP16 bool           `json:"allow_fp16"`
	QoSMin    float64        `json:"qos_min"`
	Obj       core.Objective `json:"objective"`
	// Epoch counts the edge's registrations after lease expiry (0 for the
	// first incarnation).
	Epoch int `json:"epoch,omitempty"`
	// LeaseMillis tells the edge how long it may stay silent before the
	// coordinator declares it dead and reassigns its work.
	LeaseMillis int64 `json:"lease_ms,omitempty"`
}

type profilesReq struct {
	EdgeID int `json:"edge_id"`
	// Shard is the profile shard the payload covers. Required.
	Shard    *int            `json:"shard"`
	Attempt  int             `json:"attempt,omitempty"`
	Profiles json.RawMessage `json:"profiles"`
}

type assignmentsResp struct {
	Ready bool `json:"ready"`
	// Shortlist is the whole ε1-shortlist (QoS/Perf are server
	// predictions); core.ValidateSlice takes a unit's share of it.
	Shortlist []pareto.Point `json:"shortlist"`
	// Reprofile, when set on a not-ready response, asks the polling edge
	// to collect profiles for a dead edge's shard.
	Reprofile *int `json:"reprofile,omitempty"`
}

type validatedReq struct {
	EdgeID int `json:"edge_id"`
	// Slice is the shortlist slice the points validate. Required.
	Slice   *int           `json:"slice"`
	Attempt int            `json:"attempt,omitempty"`
	Points  []pareto.Point `json:"points"`
}

type curveResp struct {
	Ready bool            `json:"ready"`
	Curve json.RawMessage `json:"curve,omitempty"`
	// Revalidate, when set on a not-ready response, asks the polling edge
	// to validate a dead edge's shortlist slice.
	Revalidate *int `json:"revalidate,omitempty"`
}

// Handler returns the coordinator's HTTP API: the protocol endpoints, the
// fleet stats at GET /v1/stats, the process metric registry at /metrics
// (OpenMetrics) and a liveness probe at
// /healthz, so a coordinator is scrapeable without a separate
// -metrics-addr endpoint. Every route is counted by obs.Route.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range []struct {
		pattern string
		h       http.Handler
	}{
		{"POST /v1/register", http.HandlerFunc(c.handleRegister)},
		{"POST /v1/profiles", http.HandlerFunc(c.handleProfiles)},
		{"GET /v1/assignments", http.HandlerFunc(c.handleAssignments)},
		{"POST /v1/validated", http.HandlerFunc(c.handleValidated)},
		{"GET /v1/curve", http.HandlerFunc(c.handleCurve)},
		{"POST /v1/telemetry", http.HandlerFunc(c.handleTelemetry)},
		{"GET /v1/stats", http.HandlerFunc(c.handleStats)},
		{"GET /metrics", obs.MetricsHandler(nil)},
		{"GET /healthz", obs.HealthzHandler()},
	} {
		mux.Handle(rt.pattern, obs.Route(rt.pattern, rt.h))
	}
	return mux
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerReq
	if !obs.ReadJSON(w, r, &req) || !c.inFleet(w, "edge id", &req.EdgeID) {
		return
	}
	c.mu.Lock()
	now := c.now()
	if c.started.IsZero() {
		c.started = now
	}
	key := tokenKey("register", req.EdgeID, req.EdgeID, req.Attempt)
	dup := c.seen[key]
	c.seen[key] = true
	st := c.edges[req.EdgeID]
	switch {
	case st == nil:
		st = &edgeLease{}
		c.edges[req.EdgeID] = st
	case dup:
		// Retransmitted registration: renew the lease, same epoch.
		mDupRequests.Inc()
	case now.After(st.expires):
		// A fresh registration after expiry: the edge restarted.
		st.epoch++
		st.expired = false
		mReRegistrations.Inc()
	}
	st.expires = now.Add(c.opts.LeaseTTL)
	epoch := st.epoch
	c.mu.Unlock()
	obs.ReplyJSON(w, http.StatusOK, registerResp{
		Seed:        c.opts.Seed,
		NEdge:       c.opts.NEdge,
		AllowFP16:   c.opts.Policy.AllowFP16,
		QoSMin:      c.opts.QoSMin,
		Obj:         c.opts.Objective,
		Epoch:       epoch,
		LeaseMillis: c.opts.LeaseTTL.Milliseconds(),
	})
}

func (c *Coordinator) handleProfiles(w http.ResponseWriter, r *http.Request) {
	var req profilesReq
	if !obs.ReadJSON(w, r, &req) || !c.inFleet(w, "edge id", &req.EdgeID) || !c.inFleet(w, "shard", req.Shard) {
		return
	}
	profs, err := predictor.UnmarshalProfiles(req.Profiles)
	if err != nil {
		obs.ReplyError(w, http.StatusBadRequest, err.Error())
		return
	}
	c.mu.Lock()
	complete := upload(c, c.prof, "profiles", req.EdgeID, *req.Shard, req.Attempt, profs)
	c.mu.Unlock()
	if complete {
		// The completing upload owes the fleet the search. The shards are
		// never written again, so it reads them without the lock.
		c.search(c.prof.result)
	}
	w.WriteHeader(http.StatusNoContent)
}

// upload applies one edge's result v for unit u of step p: a retried or
// duplicated request (same attempt token) is absorbed, and a unit that is
// already done keeps its first result. It reports whether v completed the
// step. Callers hold c.mu.
func upload[T any](c *Coordinator, p *phase[T], endpoint string, edgeID, u, attempt int, v T) bool {
	c.touchLocked(edgeID)
	key := tokenKey(endpoint, edgeID, u, attempt)
	if c.seen[key] {
		mDupRequests.Inc()
		return false
	}
	c.seen[key] = true
	return p.put(u, v)
}

// search runs the server-side step and publishes its outcome. It runs
// without c.mu: the search is the protocol's longest step, and while it
// lasts the fleet must still get "not ready" answers and lease renewals
// from its polls. A panicking search must become a recorded error, not a
// wedged fleet: the triggering upload's attempt token is already marked
// applied, so retries would be absorbed as duplicates and the edges would
// poll a never-ready coordinator forever.
func (c *Coordinator) search(shards []*predictor.Profiles) {
	var shortlist []pareto.Point
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("distrib: server-side search panicked: %v", r)
			}
		}()
		shortlist, _, err = core.SearchShortlist(c.prog, c.devProfs, shards, c.opts, nil)
	}()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shortlist, c.searchErr, c.searched = shortlist, err, true
}

func (c *Coordinator) handleAssignments(w http.ResponseWriter, r *http.Request) {
	edgeID, ok := c.edgeParam(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(edgeID)
	if c.searchErr != nil {
		obs.ReplyError(w, http.StatusInternalServerError, c.searchErr.Error())
		return
	}
	if !c.searched {
		resp := assignmentsResp{Ready: false}
		if shard, ok := c.prof.orphan(edgeID, c.deadNowLocked()); ok {
			resp.Reprofile = &shard
			mReassignedShards.Inc()
		}
		obs.ReplyJSON(w, http.StatusOK, resp)
		return
	}
	obs.ReplyJSON(w, http.StatusOK, assignmentsResp{Ready: true, Shortlist: c.shortlist})
}

func (c *Coordinator) handleValidated(w http.ResponseWriter, r *http.Request) {
	var req validatedReq
	if !obs.ReadJSON(w, r, &req) || !c.inFleet(w, "edge id", &req.EdgeID) || !c.inFleet(w, "slice", req.Slice) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if upload(c, c.val, "validated", req.EdgeID, *req.Slice, req.Attempt, req.Points) {
		c.final = core.FinalCurve(c.prog, c.devProfs.BaseQoS, c.val.result, c.opts)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleCurve(w http.ResponseWriter, r *http.Request) {
	edgeID, ok := c.edgeParam(w, r)
	if !ok {
		return
	}
	var resp curveResp
	c.mu.Lock()
	c.touchLocked(edgeID)
	if c.final == nil && c.searched && c.searchErr == nil {
		if slice, ok := c.val.orphan(edgeID, c.deadNowLocked()); ok {
			resp.Revalidate = &slice
			mReassignedSlices.Inc()
		}
	}
	final := c.final
	c.mu.Unlock()
	if final != nil {
		data, err := final.Marshal()
		if err != nil {
			obs.ReplyError(w, http.StatusInternalServerError, err.Error())
			return
		}
		resp.Ready, resp.Curve = true, data
	}
	obs.ReplyJSON(w, http.StatusOK, resp)
}

// FinalCurve returns the final tradeoff curve once all slices reported, or
// (nil, false) while the protocol is still in flight.
func (c *Coordinator) FinalCurve() (*pareto.Curve, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.final, c.final != nil
}

// Registered returns how many distinct edges have registered.
func (c *Coordinator) Registered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.edges)
}

// --- locked helpers -------------------------------------------------------

// touchLocked renews the lease of a registered edge. Callers hold c.mu.
func (c *Coordinator) touchLocked(edgeID int) {
	if st := c.edges[edgeID]; st != nil {
		st.expires = c.now().Add(c.opts.LeaseTTL)
	}
}

// deadNowLocked is deadLocked at one reading of the clock, for one orphan
// scan. Callers hold c.mu while the scan runs.
func (c *Coordinator) deadNowLocked() func(owner int) bool {
	now := c.now()
	return func(owner int) bool { return c.deadLocked(owner, now) }
}

// deadLocked reports whether the owner of a work unit can be declared
// dead: its lease expired, or it never registered and the fleet has been
// running for longer than one lease. Callers hold c.mu.
func (c *Coordinator) deadLocked(owner int, now time.Time) bool {
	st := c.edges[owner]
	if st == nil {
		return !c.started.IsZero() && now.After(c.started.Add(c.opts.LeaseTTL))
	}
	if now.After(st.expires) {
		if !st.expired {
			st.expired = true
			mLeaseExpirations.Inc()
		}
		return true
	}
	return false
}

// tokenKey builds the idempotency-token key for one applied operation.
func tokenKey(endpoint string, edge, unit, attempt int) string {
	return fmt.Sprintf("%s/%d/%d/%d", endpoint, edge, unit, attempt)
}

// inFleet checks that a request names one of the fleet's units — an edge,
// a profile shard or a validation slice — answering 400 when id is
// missing or out of range.
func (c *Coordinator) inFleet(w http.ResponseWriter, what string, id *int) bool {
	switch {
	case id == nil:
		obs.ReplyError(w, http.StatusBadRequest, what+" missing")
	case *id < 0 || *id >= c.opts.NEdge:
		obs.ReplyError(w, http.StatusBadRequest, fmt.Sprintf("%s %d out of range [0,%d)", what, *id, c.opts.NEdge))
	default:
		return true
	}
	return false
}

// edgeParam reads the required "edge" query parameter, answering 400
// unless it names an edge of the fleet.
func (c *Coordinator) edgeParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	s := r.URL.Query().Get("edge")
	id, err := strconv.Atoi(s)
	if err != nil {
		obs.ReplyError(w, http.StatusBadRequest, fmt.Sprintf("bad edge query parameter %q", s))
		return 0, false
	}
	return id, c.inFleet(w, "edge", &id)
}
