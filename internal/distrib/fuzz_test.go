package distrib

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pareto"
	"repro/internal/predictor"
	"repro/internal/tensor"
)

// FuzzCoordinatorUploads throws arbitrary bodies at the four upload
// endpoints of a fresh two-edge coordinator (two, so that no single upload
// completes the set and starts a search). Whatever arrives, a handler must
// not panic, must answer 2xx or 400, and may record a registration, shard,
// slice or telemetry entry only for a body that decodes with every
// identifier present and in range — a refused body leaves no state behind. An accepted
// telemetry upload must also leave GET /v1/stats able to render.
func FuzzCoordinatorUploads(f *testing.F) {
	gp, base := buildProgram(f)
	devProfs := devProfiles(f, gp)
	opts := core.InstallOptions{
		Options: core.Options{QoSMin: base - 10, Seed: 1},
		Device:  device.NewTX2GPU(),
		NEdge:   2,
	}
	endpoints := []string{"/v1/register", "/v1/profiles", "/v1/validated", "/v1/telemetry"}

	// A two-entry shard with 2×2 raw-output deltas: every field of the
	// profile wire format, small enough for the mutator to get through.
	baseOut := tensor.FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	shard := predictor.NewProfiles(base, baseOut)
	for _, op := range gp.Ops()[:2] {
		hw := core.KnobsFor(gp, op, core.KnobPolicy{IncludeHardware: true})
		shard.Add(op, hw[len(hw)-1], -1.5, tensor.FromSlice([]float32{0, 0.25, -0.25, 0}, 2, 2))
	}
	profs, err := shard.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	points, err := json.Marshal([]pareto.Point{{QoS: base, Perf: 1, Config: nil}})
	if err != nil {
		f.Fatal(err)
	}
	for endpoint, bodies := range [][]string{
		{`{"edge_id":0,"attempt":1}`, `{"edge_id":2}`, `{"edge_id":-1}`, `{"edge_id":"0"}`, ``},
		{
			`{"edge_id":1,"shard":0,"attempt":2,"profiles":` + string(profs) + `}`,
			`{"edge_id":7,"shard":0,"profiles":` + string(profs) + `}`,
			`{"edge_id":-1,"shard":1,"profiles":` + string(profs) + `}`,
			`{"edge_id":0,"shard":5,"profiles":` + string(profs) + `}`,
			`{"edge_id":0,"shard":0,"profiles":{"delta_q":[{"op":0,"knob":9999,"dq":-1}]}}`,
			`{"edge_id":0,"shard":1,"profiles":{"base_out":{"dims":[2,2],"data":"AAAA"}}}`,
			`{"edge_id":0,"profiles":` + string(profs) + `}`,
		},
		{
			`{"edge_id":0,"slice":1,"attempt":3,"points":` + string(points) + `}`,
			`{"edge_id":9,"slice":0,"points":[]}`,
			`{"edge_id":0,"slice":-2,"points":[]}`,
			`{"edge_id":0,"slice":0,"points":{}}`,
			`{"edge_id":1,"points":[]}`,
		},
		{
			`{"edge_id":1,"requests":12,"retries":1,"timeouts":0}`,
			`{"edge_id":3,"requests":1}`,
			`{"edge_id":0,"latency":{}}`,
			`{"edge_id":0,"spans":[{}]}`,
		},
	} {
		for _, body := range bodies {
			f.Add(uint8(endpoint), []byte(body))
		}
	}

	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		coord, err := NewCoordinator(gp, devProfs, opts)
		if err != nil {
			t.Fatal(err)
		}
		h := coord.Handler()
		path := endpoints[int(endpoint)%len(endpoints)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))

		recorded := len(coord.edges) + doneUnits(t, coord.prof) + doneUnits(t, coord.val) + len(coord.edgeTel)
		switch {
		case rec.Code == http.StatusBadRequest:
			if recorded != 0 || reassigned(coord.prof) || reassigned(coord.val) || len(coord.seen) != 0 {
				t.Fatalf("POST %s %q was refused but left state behind", path, body)
			}
			return
		case rec.Code != http.StatusOK && rec.Code != http.StatusNoContent:
			t.Fatalf("POST %s %q: status %d", path, body, rec.Code)
		}

		// Read the identifiers the way the endpoint does: each request type
		// has edge_id, only the profiles one has shard, only the validated
		// one slice, and those two are required — a key the endpoint does
		// not know is not its to refuse.
		var ids struct {
			EdgeID int `json:"edge_id"`
		}
		var shard struct {
			Shard *int `json:"shard"`
		}
		var slice struct {
			Slice *int `json:"slice"`
		}
		err = json.Unmarshal(body, &ids)
		unit := ids.EdgeID
		switch {
		case err != nil:
		case path == "/v1/profiles":
			unit = -1 // no shard named: never in range
			if err = json.Unmarshal(body, &shard); shard.Shard != nil {
				unit = *shard.Shard
			}
		case path == "/v1/validated":
			unit = -1
			if err = json.Unmarshal(body, &slice); slice.Slice != nil {
				unit = *slice.Slice
			}
		}
		if err != nil {
			t.Fatalf("POST %s accepted a body that does not decode: %q", path, body)
		}
		inRange := func(id int) bool { return id >= 0 && id < opts.NEdge }
		if !inRange(ids.EdgeID) || !inRange(unit) {
			t.Fatalf("POST %s accepted edge %d / unit %d of a %d-edge fleet", path, ids.EdgeID, unit, opts.NEdge)
		}
		// Exactly the one entry the body names exists, and it is whole.
		var ok bool
		switch path {
		case "/v1/register":
			ok = coord.edges[ids.EdgeID] != nil && !coord.prof.done[ids.EdgeID]
		case "/v1/profiles":
			ok = coord.prof.done[unit] && coord.prof.result[unit] != nil
		case "/v1/validated":
			ok = coord.val.done[unit]
		case "/v1/telemetry":
			_, ok = coord.edgeTel[ids.EdgeID]
			stats := httptest.NewRecorder()
			h.ServeHTTP(stats, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
			ok = ok && stats.Code == http.StatusOK
		}
		if !ok || recorded != 1 || coord.searched || coord.final != nil {
			t.Fatalf("POST %s %q: accepted, but the coordinator holds %d entries (searched %v)", path, body, recorded, coord.searched)
		}
	})
}

// doneUnits counts a step's finished units, checking that the table's
// count of units left agrees with its done flags.
func doneUnits[T any](t *testing.T, p *phase[T]) int {
	n := 0
	for _, d := range p.done {
		if d {
			n++
		}
	}
	if n+p.left != len(p.done) {
		t.Fatalf("%d of %d units done, but %d left", n, len(p.done), p.left)
	}
	return n
}

// reassigned reports whether any unit of a step left its first owner.
func reassigned[T any](p *phase[T]) bool {
	for u, owner := range p.owner {
		if owner != u {
			return true
		}
	}
	return false
}
