package distrib

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pareto"
	"repro/internal/predictor"
)

// fleetSpec configures one chaos fleet run.
type fleetSpec struct {
	nEdge    int
	leaseTTL time.Duration
	deadline time.Duration
	// plan, when non-nil, wraps every edge's transport in a seeded
	// FaultyTransport (each edge offset by its ID for an independent but
	// reproducible schedule).
	plan *FaultPlan
	// failpoints maps edge ID → injected crash points.
	failpoints map[int]Failpoints
	// absent marks edges that never start at all (no-show: not even a
	// registration).
	absent map[int]bool
}

// fleetResult is the outcome of one run: per-edge curve bytes (nil for
// edges that did not finish), per-edge errors, and the coordinator's own
// marshaled final curve.
type fleetResult struct {
	curves     [][]byte
	errs       []error
	coordCurve []byte
	coord      *Coordinator
}

// chaosOptions is the shared protocol configuration of every chaos run.
func chaosOptions(base float64, spec fleetSpec) core.InstallOptions {
	return core.InstallOptions{
		Options: core.Options{
			QoSMin: base - 10, NCalibrate: 5, MaxIters: 150, StallLimit: 80,
			MaxConfigs: 12, Policy: core.KnobPolicy{AllowFP16: true}, Seed: 3,
			Model: predictor.Pi2,
		},
		Device:         device.NewTX2GPU(),
		Objective:      core.MinimizeEnergy,
		NEdge:          spec.nEdge,
		LeaseTTL:       spec.leaseTTL,
		RequestTimeout: 5 * time.Second,
		MaxRetries:     8,
		RetryBase:      2 * time.Millisecond,
	}
}

// runFleet executes one full protocol run under the given fault schedule.
func runFleet(t *testing.T, gp *core.GraphProgram, profs *predictor.Profiles, base float64, spec fleetSpec) fleetResult {
	t.Helper()
	opts := chaosOptions(base, spec)
	coord, err := NewCoordinator(gp, profs, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	deadline := spec.deadline
	if deadline == 0 {
		deadline = 90 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	res := fleetResult{
		curves: make([][]byte, spec.nEdge),
		errs:   make([]error, spec.nEdge),
		coord:  coord,
	}
	var wg sync.WaitGroup
	for i := 0; i < spec.nEdge; i++ {
		if spec.absent[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := NewEdge(i, srv.URL, gp, device.NewTX2GPU(), opts)
			e.PollInterval = 5 * time.Millisecond
			e.Failpoints = spec.failpoints[i]
			if spec.plan != nil {
				p := *spec.plan
				p.Seed += int64(i)
				e.Transport = NewFaultyTransport(p, nil)
			}
			curve, err := e.Run(ctx)
			res.errs[i] = err
			if err == nil {
				res.curves[i], err = curve.Marshal()
				if err != nil {
					res.errs[i] = err
				}
			}
		}(i)
	}
	wg.Wait()
	if final, ok := coord.FinalCurve(); ok {
		data, err := final.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		res.coordCurve = data
	}
	return res
}

// checkConvergence asserts the surviving fleet produced a valid final
// curve: the coordinator finalized, every survivor fetched the identical
// bytes, and every shipped point satisfies the QoS threshold.
func checkConvergence(t *testing.T, res fleetResult, base float64, crashed map[int]bool) {
	t.Helper()
	if res.coordCurve == nil {
		t.Fatal("coordinator never produced a final curve")
	}
	for i, err := range res.errs {
		if crashed[i] {
			if err == nil {
				t.Errorf("edge %d was scheduled to crash but finished cleanly", i)
			} else if !errors.Is(err, ErrInjectedCrash) {
				t.Errorf("edge %d failed with a non-injected error: %v", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("surviving edge %d: %v", i, err)
		}
		if !bytes.Equal(res.curves[i], res.coordCurve) {
			t.Errorf("edge %d fetched a curve different from the coordinator's", i)
		}
	}
	curve, err := pareto.UnmarshalCurve(res.coordCurve)
	if err != nil {
		t.Fatalf("final curve does not parse: %v", err)
	}
	if curve.Len() == 0 {
		t.Fatal("final curve is empty")
	}
	for _, pt := range curve.Points {
		if pt.QoS <= base-10 {
			t.Errorf("shipped point below QoS threshold: %v", pt.QoS)
		}
		if pt.Perf <= 0 {
			t.Errorf("bad Perf %v", pt.Perf)
		}
	}
}

// TestChaosMatrix drives the protocol through seeded fault schedules ×
// failure modes and asserts the surviving fleet always converges to a
// valid final Pareto curve within the test deadline.
func TestChaosMatrix(t *testing.T) {
	gp, base := buildProgram(t)
	profs := devProfiles(t, gp)
	const nEdge = 3

	// The reassignment scenarios use a short lease so survivors take over
	// quickly. Every scenario must ship the zero-fault bytes: retries are
	// idempotent, and a unit's result depends on the unit alone, so a
	// survivor that re-profiles a shard or re-validates a slice reproduces
	// what the dead owner would have uploaded.
	shortLease := 300 * time.Millisecond

	type scenario struct {
		name       string
		spec       fleetSpec
		crashed    map[int]bool
		reassigned bool // at least one work unit must have moved
	}
	scenarios := []scenario{
		{
			name: "crash_before_profiles",
			spec: fleetSpec{
				nEdge: nEdge, leaseTTL: shortLease,
				failpoints: map[int]Failpoints{2: {CrashBeforeProfiles: true}},
			},
			crashed:    map[int]bool{2: true},
			reassigned: true,
		},
		{
			name: "crash_before_validated",
			spec: fleetSpec{
				nEdge: nEdge, leaseTTL: shortLease,
				failpoints: map[int]Failpoints{1: {CrashBeforeValidated: true}},
			},
			crashed:    map[int]bool{1: true},
			reassigned: true,
		},
		{
			name: "flaky_transport",
			spec: fleetSpec{
				nEdge: nEdge,
				plan:  &FaultPlan{DropProb: 0.15, Err500Prob: 0.10, DupProb: 0.10, MaxDelay: 2 * time.Millisecond},
			},
		},
		{
			name: "edge_never_appears",
			spec: fleetSpec{
				nEdge: nEdge, leaseTTL: shortLease,
				absent: map[int]bool{2: true},
			},
			crashed:    map[int]bool{2: true},
			reassigned: true,
		},
	}

	seeds := []int64{101, 202}
	if testing.Short() {
		seeds = seeds[:1]
		scenarios = scenarios[:3]
	}

	golden := runFleet(t, gp, profs, base, fleetSpec{nEdge: nEdge})
	checkConvergence(t, golden, base, nil)

	for _, sc := range scenarios {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				spec := sc.spec
				if spec.plan != nil {
					p := *spec.plan
					p.Seed = seed
					spec.plan = &p
				}
				before := res2counters()
				res := runFleet(t, gp, profs, base, spec)
				crashed := sc.crashed
				if spec.absent != nil {
					// Absent edges never ran, so they report no error;
					// exclude them from the survivor checks.
					crashed = map[int]bool{}
					for i := range spec.absent {
						res.errs[i] = ErrInjectedCrash
						crashed[i] = true
					}
				}
				checkConvergence(t, res, base, crashed)
				after := res2counters()
				if !bytes.Equal(res.coordCurve, golden.coordCurve) {
					t.Error("faults changed the final curve: a retry was not idempotent, or a takeover did not reproduce its unit")
				}
				if sc.reassigned && after.reassigned <= before.reassigned {
					t.Error("expected at least one shard/slice reassignment")
				}
			})
		}
	}
}

// counterSnapshot isolates chaos assertions from the process-global
// metric registry (other tests in the package also move the counters).
type counterSnapshot struct{ reassigned int64 }

func res2counters() counterSnapshot {
	return counterSnapshot{reassigned: mReassignedShards.Value() + mReassignedSlices.Value()}
}

// TestChaosZeroFaultDeterminism pins the bit-identical guarantee: with
// zero injected faults the protocol's final curve is byte-identical
// across GOMAXPROCS settings and across plain vs zero-fault-injected
// transports. What those bytes are is TestHTTPMatchesInProcessInstallTune's
// to say: core.InstallTune's curve for the same options.
func TestChaosZeroFaultDeterminism(t *testing.T) {
	gp, base := buildProgram(t)
	profs := devProfiles(t, gp)
	const nEdge = 3

	var curves [][]byte
	run := func(procs int, withTransport bool) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		spec := fleetSpec{nEdge: nEdge}
		if withTransport {
			spec.plan = &FaultPlan{Seed: 7} // all probabilities zero
		}
		res := runFleet(t, gp, profs, base, spec)
		checkConvergence(t, res, base, nil)
		curves = append(curves, res.coordCurve)
	}
	run(runtime.GOMAXPROCS(0), false)
	run(1, false)
	run(runtime.GOMAXPROCS(0), true)
	for i := 1; i < len(curves); i++ {
		if !bytes.Equal(curves[0], curves[i]) {
			t.Fatalf("run %d produced different final-curve bytes than run 0", i)
		}
	}
}

// TestEdgeRunHonorsContext pins the no-unbounded-polling guarantee: when
// the fleet cannot converge (a peer never arrives), a cancelled deadline
// aborts the poll loop instead of spinning forever.
func TestEdgeRunHonorsContext(t *testing.T) {
	gp, base := buildProgram(t)
	profs := devProfiles(t, gp)
	coord, err := NewCoordinator(gp, profs, chaosOptions(base, fleetSpec{nEdge: 2, leaseTTL: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// Edge 1 never shows up and the lease is an hour, so edge 0 can only
	// give up when its context expires.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	e := NewEdge(0, srv.URL, gp, device.NewTX2GPU(), chaosOptions(base, fleetSpec{nEdge: 2}))
	e.PollInterval = 5 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("expected deadline error, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("edge kept polling long after its context deadline")
	}
}
