package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/predictor"
	"repro/internal/qos"
	"repro/internal/tensor"
)

func buildProgram(t testing.TB) (*core.GraphProgram, float64) {
	t.Helper()
	b := models.MustBuild("lenet", models.Scale{Images: 24, Width: 0.125, ImageNetSize: 32, Seed: 31})
	calib, test := b.Dataset.Split()
	gp, err := core.NewGraphProgram(b.Model.Graph, calib.Images, test.Images,
		qos.Accuracy{Labels: calib.Labels}, qos.Accuracy{Labels: test.Labels})
	if err != nil {
		t.Fatal(err)
	}
	gp.CalibMetricFor = func(lo, hi int) qos.Metric {
		return qos.Accuracy{Labels: calib.Labels[lo:hi]}
	}
	base := gp.Score(core.Calib, gp.BaselineOut(core.Calib))
	return gp, base
}

func devProfiles(t testing.TB, gp *core.GraphProgram) *predictor.Profiles {
	t.Helper()
	pol := core.KnobPolicy{AllowFP16: true}
	return core.CollectProfiles(gp, nil, func(op int) []approx.KnobID {
		return core.KnobsFor(gp, op, pol)
	}, tensor.NewRNG(7), nil)
}

func TestFullProtocolOverHTTP(t *testing.T) {
	gp, base := buildProgram(t)
	profs := devProfiles(t, gp)
	const nEdge = 3
	opts := core.InstallOptions{
		Options: core.Options{
			QoSMin: base - 10, NCalibrate: 5, MaxIters: 150, StallLimit: 80,
			MaxConfigs: 12, Policy: core.KnobPolicy{AllowFP16: true}, Seed: 3,
			Model: predictor.Pi2,
		},
		Device:    device.NewTX2GPU(),
		Objective: core.MinimizeEnergy,
		NEdge:     nEdge,
	}
	coord, err := NewCoordinator(gp, profs, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	results := make([]*errCurve, nEdge)
	for i := 0; i < nEdge; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := NewEdge(i, srv.URL, gp, device.NewTX2GPU(), opts)
			c, err := e.Run(ctx)
			results[i] = &errCurve{c, err}
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.err != nil {
			t.Fatalf("edge %d: %v", i, r.err)
		}
		if r.curve.Len() == 0 {
			t.Fatalf("edge %d received empty final curve", i)
		}
	}
	// Coordinator agrees with what edges fetched.
	final, ok := coord.FinalCurve()
	if !ok {
		t.Fatal("coordinator has no final curve")
	}
	if final.Len() != results[0].curve.Len() {
		t.Fatalf("curve length mismatch: %d vs %d", final.Len(), results[0].curve.Len())
	}
	// Every shipped point meets the QoS threshold (validated on shards).
	for _, pt := range final.Points {
		if pt.QoS <= opts.QoSMin {
			t.Errorf("shipped point below threshold: %v", pt.QoS)
		}
		if pt.Perf <= 0 {
			t.Errorf("bad Perf %v", pt.Perf)
		}
	}
}

type errCurve struct {
	curve interface{ Len() int }
	err   error
}

// TestHTTPMatchesInProcessInstallTune pins what this package is: a transport.
// The HTTP fleet and core.InstallTune's goroutine fleet call the same four
// core steps with the same seeds, so for equal options — the edges take
// theirs from the coordinator — the two final curves are the same bytes.
func TestHTTPMatchesInProcessInstallTune(t *testing.T) {
	gp, base := buildProgram(t)
	profs := devProfiles(t, gp)
	for _, nEdge := range []int{1, 3} {
		spec := fleetSpec{nEdge: nEdge}
		inproc, err := core.InstallTune(gp, profs, chaosOptions(base, spec))
		if err != nil {
			t.Fatal(err)
		}
		want, err := inproc.Curve.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		res := runFleet(t, gp, profs, base, spec)
		checkConvergence(t, res, base, nil)
		if !bytes.Equal(res.coordCurve, want) {
			t.Errorf("%d edges: the HTTP fleet and InstallTune shipped different curves:\nhttp:\n%s\nin-process:\n%s", nEdge, res.coordCurve, want)
		}
	}
}

func TestRegisterRejectsBadEdgeID(t *testing.T) {
	gp, base := buildProgram(t)
	coord, err := NewCoordinator(gp, devProfiles(t, gp), core.InstallOptions{
		Options: core.Options{QoSMin: base - 10},
		Device:  device.NewTX2GPU(),
		NEdge:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	e := NewEdge(99, srv.URL, gp, nil, core.InstallOptions{})
	if _, err := e.Run(context.Background()); err == nil {
		t.Fatal("out-of-range edge id must be rejected")
	}
}

// TestHandlersRejectBogusIdentifiers pins the protocol-validation fixes:
// missing or out-of-range edge/shard/slice IDs on the upload endpoints and
// missing, malformed or negative edge query parameters on the poll
// endpoints must be rejected, never silently counted toward convergence.
func TestHandlersRejectBogusIdentifiers(t *testing.T) {
	gp, base := buildProgram(t)
	coord, err := NewCoordinator(gp, devProfiles(t, gp), core.InstallOptions{
		Options: core.Options{QoSMin: base - 10},
		Device:  device.NewTX2GPU(),
		NEdge:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	cl := srv.Client()

	post := func(path, body string) int {
		t.Helper()
		resp, err := cl.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	get := func(path string) int {
		t.Helper()
		resp, err := cl.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	profs, err := devProfiles(t, gp).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		code int
	}{
		{"profiles edge out of range", post("/v1/profiles", `{"edge_id":7,"profiles":`+string(profs)+`}`)},
		{"profiles negative edge", post("/v1/profiles", `{"edge_id":-1,"profiles":`+string(profs)+`}`)},
		{"profiles shard out of range", post("/v1/profiles", `{"edge_id":0,"shard":5,"profiles":`+string(profs)+`}`)},
		{"profiles missing shard", post("/v1/profiles", `{"edge_id":0,"profiles":`+string(profs)+`}`)},
		{"validated edge out of range", post("/v1/validated", `{"edge_id":9,"slice":0,"points":[]}`)},
		{"validated slice out of range", post("/v1/validated", `{"edge_id":0,"slice":-2,"points":[]}`)},
		{"validated missing slice", post("/v1/validated", `{"edge_id":0,"points":[]}`)},
		{"assignments missing edge", get("/v1/assignments")},
		{"assignments malformed edge", get("/v1/assignments?edge=12abc")},
		{"assignments negative edge", get("/v1/assignments?edge=-1")},
		{"assignments out-of-range edge", get("/v1/assignments?edge=2")},
		{"curve malformed edge", get("/v1/curve?edge=x")},
		{"curve missing edge", get("/v1/curve")},
	}
	for _, tc := range cases {
		if tc.code != 400 {
			t.Errorf("%s: got status %d, want 400", tc.name, tc.code)
		}
	}
	// A bogus upload must not have created shard or slice state.
	if got, _ := coord.FinalCurve(); got != nil {
		t.Fatal("bogus uploads produced a final curve")
	}
	coord.mu.Lock()
	if n := coord.opts.NEdge; coord.prof.left != n || coord.val.left != n {
		t.Errorf("bogus uploads leaked state: %d shards, %d validated", n-coord.prof.left, n-coord.val.left)
	}
	coord.mu.Unlock()
}

// TestRegisterIsIdempotent pins the registered-set fix: re-registering
// the same edge (a legitimate retry) must not double-count.
func TestRegisterIsIdempotent(t *testing.T) {
	gp, base := buildProgram(t)
	coord, err := NewCoordinator(gp, devProfiles(t, gp), core.InstallOptions{
		Options: core.Options{QoSMin: base - 10},
		Device:  device.NewTX2GPU(),
		NEdge:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	cl := srv.Client()
	for i := 0; i < 3; i++ {
		resp, err := cl.Post(srv.URL+"/v1/register", "application/json", strings.NewReader(`{"edge_id":0,"attempt":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("register retry %d: status %d", i, resp.StatusCode)
		}
	}
	if got := coord.Registered(); got != 1 {
		t.Fatalf("3 retried registrations counted as %d edges, want 1", got)
	}
}

func TestProfilesSerializationRoundTrip(t *testing.T) {
	gp, _ := buildProgram(t)
	profs := devProfiles(t, gp)
	data, err := profs.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := predictor.UnmarshalProfiles(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.BaseQoS != profs.BaseQoS {
		t.Errorf("BaseQoS %v != %v", back.BaseQoS, profs.BaseQoS)
	}
	if len(back.DeltaQ) != len(profs.DeltaQ) || len(back.DeltaT) != len(profs.DeltaT) {
		t.Fatalf("table sizes changed: %d/%d vs %d/%d",
			len(back.DeltaQ), len(back.DeltaT), len(profs.DeltaQ), len(profs.DeltaT))
	}
	for k, v := range profs.DeltaQ {
		if back.DeltaQ[k] != v {
			t.Fatalf("ΔQ[%v] changed: %v vs %v", k, back.DeltaQ[k], v)
		}
	}
	for k, v := range profs.DeltaT {
		bt := back.DeltaT[k]
		if bt == nil || !tensor.Equal(bt, v, 0) {
			t.Fatalf("ΔT[%v] changed", k)
		}
	}
	if !tensor.Equal(back.BaseOut, profs.BaseOut, 0) {
		t.Fatal("BaseOut changed")
	}
}

func TestProfilesUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := predictor.UnmarshalProfiles([]byte("nope")); err == nil {
		t.Fatal("garbage must not parse")
	}
	if _, err := predictor.UnmarshalProfiles([]byte(`{"delta_q":[{"op":0,"knob":9999,"dq":-1}]}`)); err == nil {
		t.Fatal("unknown knob must be rejected")
	}
	if _, err := predictor.UnmarshalProfiles([]byte(`{"base_out":{"dims":[2,2],"data":"AAAA"}}`)); err == nil {
		t.Fatal("mismatched tensor payload must be rejected")
	}
}

// blockingProgram is the coordinator's copy of a program whose server-side
// search lasts exactly as long as a test wants: the search's first execution
// (a calibration run) closes started, and every execution waits for release.
type blockingProgram struct {
	*core.GraphProgram
	started, release chan struct{}
	startOnce        sync.Once
}

func (b *blockingProgram) Run(cfg approx.Config, set core.InputSet, rng *tensor.RNG) *tensor.Tensor {
	b.startOnce.Do(func() { close(b.started) })
	<-b.release
	return b.GraphProgram.Run(cfg, set, rng)
}

// TestSearchRunsOutsideTheLock pins the fix for a fleet-wide stall: the
// coordinator used to run the whole server-side search holding its mutex, so
// for the search's duration every poll blocked past RequestTimeout and no
// lease could be renewed — at paper-scale iteration counts edges ran out of
// retries, or came back to find their healthy peers' slices "orphaned". Here
// the search is held open while two lease lengths pass on the coordinator's
// clock: every poll must still be answered "not ready" inside
// RequestTimeout, and afterwards no unit may have been reassigned.
func TestSearchRunsOutsideTheLock(t *testing.T) {
	gp, base := buildProgram(t)
	slow := &blockingProgram{GraphProgram: gp, started: make(chan struct{}), release: make(chan struct{})}
	opts := chaosOptions(base, fleetSpec{nEdge: 2, leaseTTL: time.Minute})
	opts.RequestTimeout = 500 * time.Millisecond
	coord, err := NewCoordinator(slow, devProfiles(t, gp), opts)
	if err != nil {
		t.Fatal(err)
	}
	var elapsed atomic.Int64
	t0 := time.Now()
	coord.Now = func() time.Time { return t0.Add(time.Duration(elapsed.Load())) }
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	// Registered after srv.Close, so it runs before it: Close waits for the
	// handler the search is running in.
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(slow.release) }) }
	t.Cleanup(release)

	post := func(cl *http.Client, path string, body any) error {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := cl.Post(srv.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			return fmt.Errorf("POST %s: %s", path, resp.Status)
		}
		return nil
	}
	uploadShard := func(e int) error {
		profs, err := core.ProfileShard(gp, coord.opts, e, nil)
		if err != nil {
			return err
		}
		payload, err := profs.Marshal()
		if err != nil {
			return err
		}
		return post(srv.Client(), "/v1/profiles", profilesReq{EdgeID: e, Shard: &e, Attempt: 2, Profiles: payload})
	}
	edgeClient := &http.Client{Timeout: opts.RequestTimeout}
	poll := func(e int, path string, out any) {
		t.Helper()
		resp, err := edgeClient.Get(fmt.Sprintf("%s%s?edge=%d", srv.URL, path, e))
		if err != nil {
			t.Fatalf("edge %d poll of %s not answered within RequestTimeout: %v", e, path, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil || resp.StatusCode != 200 {
			t.Fatalf("edge %d poll of %s: status %d, %v", e, path, resp.StatusCode, err)
		}
	}

	before := res2counters()
	for e := 0; e < 2; e++ {
		if err := post(edgeClient, "/v1/register", registerReq{EdgeID: e, Attempt: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := uploadShard(0); err != nil {
		t.Fatal(err)
	}
	searched := make(chan error, 1)
	go func() { searched <- uploadShard(1) }() // the upload that completes the set carries the search
	<-slow.started

	for step := 0; step < 3; step++ {
		elapsed.Add(int64(opts.LeaseTTL * 2 / 3))
		for e := 0; e < 2; e++ {
			var asn assignmentsResp
			var cr curveResp
			poll(e, "/v1/assignments", &asn)
			poll(e, "/v1/curve", &cr)
			if asn.Ready || asn.Reprofile != nil || cr.Ready || cr.Revalidate != nil {
				t.Fatalf("mid-search poll by edge %d: assignments %+v, curve %+v; want plain not-ready", e, asn, cr)
			}
		}
	}
	release()
	if err := <-searched; err != nil {
		t.Fatal(err)
	}
	// Edge 0 goes on to validate and asks for the curve. Edge 1 has not
	// uploaded yet, but it polled through the whole search, so its slice is
	// not an orphan.
	var asn assignmentsResp
	poll(0, "/v1/assignments", &asn)
	if !asn.Ready || len(asn.Shortlist) == 0 {
		t.Fatalf("no shortlist after the search: %+v", asn)
	}
	pts, err := core.ValidateSlice(gp, coord.opts, 0, asn.Shortlist, nil)
	if err != nil {
		t.Fatal(err)
	}
	slice := 0
	if err := post(edgeClient, "/v1/validated", validatedReq{EdgeID: 0, Slice: &slice, Attempt: 3, Points: pts}); err != nil {
		t.Fatal(err)
	}
	var cr curveResp
	poll(0, "/v1/curve", &cr)
	if cr.Ready || cr.Revalidate != nil {
		t.Fatalf("edge 0 after its upload: %+v; want to wait for edge 1, whose lease the search did not cost", cr)
	}
	if after := res2counters(); after != before {
		t.Errorf("work was reassigned around a slow search: %+v → %+v", before, after)
	}
}
