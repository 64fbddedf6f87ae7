package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// quickSession returns a session shared within a test (sessions cache
// heavy artifacts, so each test builds its own to stay hermetic).
func quickSession() *Session { return NewSession(Quick()) }

func TestTable1(t *testing.T) {
	s := quickSession()
	r := Table1(s)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (quick config)", len(r.Rows))
	}
	if !strings.Contains(r.String(), "lenet") {
		t.Error("report should mention lenet")
	}
}

func TestFig2AndCPU(t *testing.T) {
	s := quickSession()
	r := Fig2(s)
	gm1 := r.Measures["gpu_speedup_geomean_1pct"]
	gm3 := r.Measures["gpu_speedup_geomean_3pct"]
	if gm1 < 1.0 {
		t.Errorf("GPU geomean speedup at 1%% = %v, want ≥ 1", gm1)
	}
	if gm3 < gm1-0.05 {
		t.Errorf("3%% threshold (%v) should allow at least the 1%% speedup (%v)", gm3, gm1)
	}
	c := CPUSpeedup(s)
	cg := c.Measures["cpu_speedup_geomean_3pct"]
	if cg < 1.0 {
		t.Errorf("CPU geomean = %v, want ≥ 1", cg)
	}
	if cg > gm3 {
		t.Errorf("CPU speedup (%v) should not beat GPU speedup (%v): no FP16 on CPU", cg, gm3)
	}
}

func TestFP16OnlyReport(t *testing.T) {
	s := quickSession()
	r := FP16Only(s)
	gm := r.Measures["fp16_speedup_geomean"]
	if gm < 1.2 || gm > 2.2 {
		t.Errorf("FP16-only geomean %v outside plausible band (paper: 1.63x)", gm)
	}
}

func TestTable3(t *testing.T) {
	s := quickSession()
	r := Table3(s)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[1] == "" {
			t.Errorf("%s: empty knob description", row[0])
		}
	}
}

func TestFig3AndTable4(t *testing.T) {
	s := quickSession()
	f := Fig3(s)
	p1 := f.Measures["pi1_speedup_geomean"]
	p2 := f.Measures["pi2_speedup_geomean"]
	em := f.Measures["empirical_speedup_geomean"]
	if p1 < 1 || p2 < 1 || em < 1 {
		t.Errorf("geomeans below 1: Π1=%v Π2=%v emp=%v", p1, p2, em)
	}
	t4 := Table4(s)
	r1 := t4.Measures["pi1_tuning_speedup_geomean"]
	r2 := t4.Measures["pi2_tuning_speedup_geomean"]
	if r1 < 1 || r2 < 1 {
		t.Errorf("predictive tuning should be faster than empirical: Π1-red=%v Π2-red=%v", r1, r2)
	}
}

func TestCurveSize(t *testing.T) {
	s := quickSession()
	r := CurveSize(s)
	if r.Measures["curve_reduction_geomean"] < 1 {
		t.Errorf("curve reduction %v below 1", r.Measures["curve_reduction_geomean"])
	}
}

func TestCurveSizeRowEmptyCurve(t *testing.T) {
	st := core.Stats{RawConfigs: 4000, Candidates: 293}
	row, _, ok := curveSizeRow("alexnet2", st, 0)
	if ok {
		t.Error("an empty curve counts as a reduction")
	}
	if got := strings.Join(row, " "); got != "alexnet2 4000 293 0 empty" {
		t.Errorf("empty-curve row = %q", got)
	}
	row, red, ok := curveSizeRow("alexnet2", st, 4)
	if !ok || red != 293.0/4 || row[4] != "73.2x" {
		t.Errorf("4-point row = %q, reduction %v, ok %v", row, red, ok)
	}
}

func TestFig5PowerShape(t *testing.T) {
	s := quickSession()
	r := Fig5(s)
	if got := r.Measures["gpu_power_ratio"]; got < 4 || got > 11 {
		t.Errorf("GPU power ratio = %v, want ~7", got)
	}
	if got := r.Measures["sys_power_ratio"]; got < 1.5 || got > 2.4 {
		t.Errorf("SYS power ratio = %v, want ~1.9", got)
	}
	if len(r.Rows) != 12 {
		t.Errorf("DVFS ladder rows = %d, want 12", len(r.Rows))
	}
}

func TestFig6RuntimeAdaptation(t *testing.T) {
	s := quickSession()
	rows := RunFig6(s, "alexnet2")
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12 frequencies", len(rows))
	}
	last := rows[len(rows)-1]
	if last.BaselineNormTime <= 1.2 {
		t.Errorf("baseline should slow down at 319 MHz, got %v", last.BaselineNormTime)
	}
	// Adaptation must counteract a substantial part of the slowdown.
	if last.AdaptedNormTime >= last.BaselineNormTime {
		t.Errorf("adaptation did nothing: %v vs %v", last.AdaptedNormTime, last.BaselineNormTime)
	}
	// At full frequency there should be no adaptation pressure.
	if rows[0].AdaptedNormTime > 1.1 {
		t.Errorf("at max frequency normalized time = %v, want ~1", rows[0].AdaptedNormTime)
	}
}

func TestFig4InstallTime(t *testing.T) {
	s := quickSession()
	r := Fig4(s)
	p1 := r.Measures["install_energy_pi1_geomean"]
	p2 := r.Measures["install_energy_pi2_geomean"]
	if p1 < 1 || p2 < 1 {
		t.Errorf("install-time energy reductions below 1: Π1=%v Π2=%v", p1, p2)
	}
	// PROMISE should enable energy reductions beyond the software-only
	// tuning's (software-only energy reduction is bounded by ~speedup).
	if p1 < 1.1 && p2 < 1.1 {
		t.Errorf("no meaningful energy reduction from PROMISE: Π1=%v Π2=%v", p1, p2)
	}
}

func TestFirstLayerStudy(t *testing.T) {
	s := quickSession()
	r := FirstLayerStudy(s)
	if r.Measures["benchmarks_total"] < 2 {
		t.Fatalf("expected 2 benchmarks, got %v", r.Measures["benchmarks_total"])
	}
}

func TestPredictorAccuracyAblation(t *testing.T) {
	// QoS is quantized to 1/N on an N-image calibration set, so rank
	// statistics need a somewhat larger set than the Quick config's.
	s := NewSession(Config{
		Benchmarks: []string{"lenet"}, Images: 64, Width: 0.125,
		ImageNetSize: 32, MaxIters: 200, StallLimit: 100, EmpIters: 40,
		NCalibrate: 6, MaxConfigs: 10, Seed: 1,
	})
	r := PredictorAccuracy(s, "lenet", 40)
	rank1 := r.Measures["rank_Π1"]
	rank2 := r.Measures["rank_Π2"]
	// Π1 is the precise model (paper §7.3); Π2 is coarser and at this
	// sample size only needs to avoid being anti-correlated.
	if rank1 < 0.55 {
		t.Errorf("Π1 should rank clearly better than chance: %v", rank1)
	}
	if rank2 < 0.35 {
		t.Errorf("Π2 anti-correlated: %v", rank2)
	}
}

func TestAlphaCalibrationAblation(t *testing.T) {
	s := quickSession()
	r := AlphaCalibration(s, "lenet", 16)
	if r.Measures["rmse_calibrated"] > r.Measures["rmse_alpha1"]*1.5 {
		t.Errorf("calibration should not substantially hurt: %v vs %v",
			r.Measures["rmse_calibrated"], r.Measures["rmse_alpha1"])
	}
}

func TestEpsilonSweepMonotone(t *testing.T) {
	s := quickSession()
	r := EpsilonSweep(s, "lenet")
	prev := -1.0
	for _, row := range r.Rows {
		var size float64
		if _, err := sscan(row[1], &size); err != nil {
			t.Fatalf("bad size %q", row[1])
		}
		if size < prev {
			t.Errorf("PSε size must grow with ε: %v after %v", size, prev)
		}
		prev = size
	}
}

func TestTechniqueAblation(t *testing.T) {
	s := quickSession()
	r := TechniqueAblation(s, "lenet")
	if r.Measures["ensemble_best"] < 1 || r.Measures["random_best"] < 1 {
		t.Errorf("both searches should find ≥1x: %+v", r.Measures)
	}
}

func TestOffsetAblation(t *testing.T) {
	s := quickSession()
	r := OffsetAblation(s, "alexnet2")
	if r.Measures["speedup_all_offsets"] < r.Measures["speedup_offset0"]-0.2 {
		t.Errorf("the larger space should not lose badly: all=%v offset0=%v",
			r.Measures["speedup_all_offsets"], r.Measures["speedup_offset0"])
	}
}

func TestRuntimePoliciesAblation(t *testing.T) {
	s := quickSession()
	r := RuntimePolicies(s, "alexnet2")
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestFig7Composite(t *testing.T) {
	if testing.Short() {
		t.Skip("composite grid is slow")
	}
	s := NewSession(Config{
		Benchmarks: []string{"alexnet2"}, Images: 16, Width: 0.125,
		ImageNetSize: 32, MaxIters: 150, StallLimit: 80, EmpIters: 40,
		NCalibrate: 5, MaxConfigs: 10, Seed: 1,
	})
	r := Fig7(s)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(r.Rows))
	}
	tight := r.Measures["fig7_tightest_cell_speedup"]
	loose := r.Measures["fig7_loosest_cell_speedup"]
	if loose < tight-0.3 {
		t.Errorf("relaxing both thresholds should not reduce speedup much: tight=%v loose=%v", tight, loose)
	}
}

func TestPruningStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("pruning study is slow")
	}
	s := NewSession(Config{
		Benchmarks: []string{"lenet"}, Images: 24, Width: 0.125,
		ImageNetSize: 32, MaxIters: 200, StallLimit: 100, EmpIters: 60,
		NCalibrate: 6, MaxConfigs: 10, Seed: 1,
	})
	r := Pruning(s)
	if got := r.Measures["pruned_mac_reduction_geomean"]; got < 1 {
		t.Errorf("MAC reduction = %v, want ≥ 1", got)
	}
}

func sscan(s string, v *float64) (int, error) {
	var n float64
	_, err := fmtSscan(s, &n)
	*v = n
	return 1, err
}

func fmtSscan(s string, v *float64) (int, error) {
	var x float64
	n, err := fmt.Sscan(s, &x)
	*v = x
	return n, err
}
