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
	"strings"
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
	profWork  map[int]*workItem           // shardID → profile-collection work
	valWork   map[int]*workItem           // sliceID → validation work (exists once searched)
	shards    map[int]*predictor.Profiles // shardID → uploaded profiles
	shortlist []pareto.Point
	searchErr error
	searched  bool
	validated map[int][]pareto.Point // sliceID → local Pareto set
	final     *pareto.Curve
	edgeTel   map[int]edgeTelemetryReq // edgeID → end-of-run client telemetry

	// Server-side trace capture: when a request arrives with a W3C
	// traceparent header, traced opens a coord:<path> span under
	// the caller's trace so GET /v1/stats can assemble the cross-process
	// trace. The tracer is private to this coordinator and retains the
	// most recent maxCoordSpans records.
	tracer *obs.Tracer
}

// edgeLease tracks one edge's liveness.
type edgeLease struct {
	expires time.Time
	epoch   int  // incremented when the edge re-registers after expiry
	expired bool // lease expiry already observed (metric fires once)
}

// workItem is one reassignable unit of edge work: a profile shard or a
// validation slice. owner is the edge currently responsible for it.
type workItem struct {
	owner int
	done  bool
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
		prog:      p,
		devProfs:  devProfiles,
		opts:      opts,
		edges:     make(map[int]*edgeLease),
		seen:      make(map[string]bool),
		profWork:  make(map[int]*workItem),
		valWork:   make(map[int]*workItem),
		shards:    make(map[int]*predictor.Profiles),
		validated: make(map[int][]pareto.Point),
		edgeTel:   make(map[int]edgeTelemetryReq),
		tracer:    obs.NewTracer(obs.TracerOptions{KeepInMemory: maxCoordSpans, IDSeed: opts.Seed}),
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
// (JSON or Prometheus text, content-negotiated) and a liveness probe at
// /healthz, so a coordinator is scrapeable without a separate
// -metrics-addr endpoint. Every route is counted by obs.Route and
// continues an inbound trace (traced).
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
		mux.Handle(rt.pattern, obs.Route(rt.pattern, c.traced(rt.pattern, rt.h)))
	}
	return mux
}

// traced continues the caller's trace, when the request carries a W3C
// traceparent, in a coord:<path> span that ends with the handler and
// records the status it answered.
func (c *Coordinator) traced(pattern string, h http.Handler) http.Handler {
	_, path, _ := strings.Cut(pattern, " ")
	name := "coord:" + path
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sc := obs.Extract(r.Header); sc.Valid() {
			sp := c.tracer.StartRemote(sc, name)
			defer func() { sp.With("status", obs.StatusOf(w)).End() }()
		}
		h.ServeHTTP(w, r)
	})
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
	if c.profWork[req.EdgeID] == nil {
		c.profWork[req.EdgeID] = &workItem{owner: req.EdgeID}
	}
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
	if shards := c.applyProfiles(req, profs); shards != nil {
		c.search(shards)
	}
	w.WriteHeader(http.StatusNoContent)
}

// applyProfiles records one profile upload (first write wins, duplicates
// absorbed). The upload that completes the set — there is exactly one,
// since a filled shard is never written again — gets the shards back in
// unit order and owes the fleet the search.
func (c *Coordinator) applyProfiles(req profilesReq, profs *predictor.Profiles) []*predictor.Profiles {
	shard := *req.Shard
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(req.EdgeID)
	key := tokenKey("profiles", req.EdgeID, shard, req.Attempt)
	if c.seen[key] {
		// Duplicate delivery of an already-applied upload (retry after a
		// lost response, or a duplicated request on the wire).
		mDupRequests.Inc()
		return nil
	}
	c.seen[key] = true
	if _, ok := c.shards[shard]; ok {
		// The shard was already filled — by this edge's earlier attempt or
		// by a reassignment race. First write wins.
		mRedundantUploads.Inc()
		return nil
	}
	c.shards[shard] = profs
	if wi := c.profWork[shard]; wi != nil {
		wi.done = true
	} else {
		c.profWork[shard] = &workItem{owner: req.EdgeID, done: true}
	}
	if !c.allShardsLocked() {
		return nil
	}
	ordered := make([]*predictor.Profiles, c.opts.NEdge)
	for s := range ordered {
		ordered[s] = c.shards[s]
	}
	return ordered
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
	if err == nil {
		for s := 0; s < c.opts.NEdge; s++ {
			c.valWork[s] = &workItem{owner: s}
		}
	}
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
		if shard, ok := c.orphanShardLocked(edgeID); ok {
			wi := c.profWork[shard]
			if wi == nil {
				wi = &workItem{}
				c.profWork[shard] = wi
			}
			wi.owner = edgeID
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
	slice := *req.Slice
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(req.EdgeID)
	key := tokenKey("validated", req.EdgeID, slice, req.Attempt)
	if c.seen[key] {
		mDupRequests.Inc()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	c.seen[key] = true
	if _, ok := c.validated[slice]; ok {
		mRedundantUploads.Inc()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	c.validated[slice] = req.Points
	if wi := c.valWork[slice]; wi != nil {
		wi.done = true
	}
	if c.final == nil && c.allSlicesLocked() {
		sets := make([][]pareto.Point, c.opts.NEdge)
		for s := range sets {
			sets[s] = c.validated[s]
		}
		c.final = core.FinalCurve(c.prog, c.devProfs.BaseQoS, sets, c.opts)
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
		if slice, ok := c.orphanSliceLocked(edgeID); ok {
			c.valWork[slice].owner = edgeID
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

// orphanShardLocked finds the lowest-numbered profile shard whose owner
// is dead and whose profiles have not arrived, to reassign to the polling
// edge. Callers hold c.mu.
func (c *Coordinator) orphanShardLocked(pollingEdge int) (int, bool) {
	now := c.now()
	for s := 0; s < c.opts.NEdge; s++ {
		if _, ok := c.shards[s]; ok {
			continue
		}
		wi := c.profWork[s]
		owner := s
		if wi != nil {
			owner = wi.owner
		}
		// The polling edge owning the unit means a previous offer to it
		// went unanswered (it only polls between work); offer it again.
		if owner == pollingEdge || c.deadLocked(owner, now) {
			return s, true
		}
	}
	return 0, false
}

// orphanSliceLocked finds the lowest-numbered validation slice whose
// owner is dead and whose points have not arrived. Callers hold c.mu.
func (c *Coordinator) orphanSliceLocked(pollingEdge int) (int, bool) {
	now := c.now()
	for s := 0; s < c.opts.NEdge; s++ {
		if _, ok := c.validated[s]; ok {
			continue
		}
		wi := c.valWork[s]
		if wi == nil {
			continue
		}
		if wi.owner == pollingEdge || c.deadLocked(wi.owner, now) {
			return s, true
		}
	}
	return 0, false
}

// allShardsLocked reports whether every profile shard 0..NEdge-1 has a
// non-nil upload. Callers hold c.mu.
func (c *Coordinator) allShardsLocked() bool {
	for s := 0; s < c.opts.NEdge; s++ {
		if c.shards[s] == nil {
			return false
		}
	}
	return true
}

// allSlicesLocked reports whether every validation slice 0..NEdge-1 has
// reported (possibly with an empty point set). Callers hold c.mu.
func (c *Coordinator) allSlicesLocked() bool {
	for s := 0; s < c.opts.NEdge; s++ {
		if _, ok := c.validated[s]; !ok {
			return false
		}
	}
	return true
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
