package distrib

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
)

// TestCrossProcessTracing runs a small fleet over loopback HTTP with
// tracing enabled on every edge and asserts the cross-process contract:
// the trace an edge started is assemblable from GET /v1/stats, with both
// the edge's client-side spans (uploaded with telemetry) and the
// coordinator's server-side coord:<path> records under the same trace
// ID, parented by traceparent propagation.
func TestCrossProcessTracing(t *testing.T) {
	gp, base := buildProgram(t)
	profs := devProfiles(t, gp)
	const nEdge = 2
	opts := core.InstallOptions{
		Options: core.Options{
			QoSMin: base - 10, NCalibrate: 5, MaxIters: 150, StallLimit: 80,
			MaxConfigs: 12, Policy: core.KnobPolicy{AllowFP16: true}, Seed: 3,
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
	tracers := make([]*obs.Tracer, nEdge)
	var wg sync.WaitGroup
	errs := make([]error, nEdge)
	for i := 0; i < nEdge; i++ {
		tracers[i] = obs.NewTracer(obs.TracerOptions{KeepInMemory: 1024, IDSeed: int64(100 + i)})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := &Edge{
				ID: i, BaseURL: srv.URL, Program: gp,
				Device: device.NewTX2GPU(),
				Tracer: tracers[i],
			}
			_, errs[i] = e.Run(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
	}

	// Every edge's run produced one edge:run root; its trace ID is the
	// key the fleet stats must carry.
	runTID := make([]string, nEdge)
	for i, tr := range tracers {
		for _, rec := range tr.Records() {
			if rec.Name == "edge:run" {
				runTID[i] = rec.TraceID.String()
			}
		}
		if runTID[i] == "" {
			t.Fatalf("edge %d recorded no edge:run span", i)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	if len(fs.Traces) == 0 {
		t.Fatal("fleet stats carry no traces")
	}
	for i := 0; i < nEdge; i++ {
		spans, ok := fs.Traces[runTID[i]]
		if !ok {
			t.Errorf("edge %d trace %s missing from fleet stats", i, runTID[i])
			continue
		}
		var edgeSide, coordSide int
		parented, hasRoot := false, false
		bySpanID := make(map[obs.SpanID]obs.SpanRecord, len(spans))
		for _, rec := range spans {
			if strings.HasPrefix(rec.Name, "edge:") {
				edgeSide++
				bySpanID[rec.SpanID] = rec
			}
			if rec.Name == "edge:run" {
				hasRoot = true
			}
		}
		for _, rec := range spans {
			if strings.HasPrefix(rec.Name, "coord:") {
				coordSide++
				// The coordinator's parent must be the edge's injected
				// request span — that is what makes the trace one tree
				// rather than two flat lists.
				if parent, ok := bySpanID[rec.ParentSpanID]; ok && parent.Name == "edge:request" {
					parented = true
				}
			}
		}
		if edgeSide == 0 || coordSide == 0 {
			t.Errorf("edge %d trace %s: %d edge-side and %d coord-side spans, want both > 0",
				i, runTID[i], edgeSide, coordSide)
		}
		if !parented {
			t.Errorf("edge %d trace %s: no coord span parented by an edge:request span", i, runTID[i])
		}
		// The edge:run root itself must reach the coordinator: the edge
		// ends it before the final telemetry upload, so the assembled
		// trace has a head, not just children of a phantom parent.
		if !hasRoot {
			t.Errorf("edge %d trace %s: assembled trace is missing the edge:run root span", i, runTID[i])
		}
	}
}

// TestEdgeTracingDisabledNoHeaders pins the opt-in contract: with no
// tracer configured, edges send no traceparent header and the
// coordinator records no traces.
func TestEdgeTracingDisabledNoHeaders(t *testing.T) {
	gp, base := buildProgram(t)
	profs := devProfiles(t, gp)
	opts := core.InstallOptions{
		Options: core.Options{
			QoSMin: base - 10, NCalibrate: 5, MaxIters: 150, StallLimit: 80,
			MaxConfigs: 12, Policy: core.KnobPolicy{AllowFP16: true}, Seed: 3,
		},
		Device:    device.NewTX2GPU(),
		Objective: core.MinimizeEnergy,
		NEdge:     1,
	}
	coord, err := NewCoordinator(gp, profs, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	e := &Edge{ID: 0, BaseURL: srv.URL, Program: gp, Device: device.NewTX2GPU()}
	if _, err := e.Run(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	if len(fs.Traces) != 0 {
		t.Errorf("untraced run produced %d traces in fleet stats", len(fs.Traces))
	}
}
