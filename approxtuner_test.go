package approxtuner_test

import (
	"math"
	"testing"

	approxtuner "repro"
	"repro/internal/models"
)

func buildApp(t testing.TB) (*approxtuner.App, *models.Benchmark) {
	t.Helper()
	b := models.MustBuild("lenet", models.Scale{Images: 24, Width: 0.125, ImageNetSize: 32, Seed: 17})
	calib, test := b.Dataset.Split()
	app, err := approxtuner.NewCNNApp(b.Model.Graph, calib.Images, calib.Labels, test.Images, test.Labels)
	if err != nil {
		t.Fatal(err)
	}
	return app, b
}

func quickSpec() approxtuner.TuneSpec {
	return approxtuner.TuneSpec{
		MaxQoSLoss: 10,
		MaxIters:   200,
		StallLimit: 100,
		MaxConfigs: 10,
		NCalibrate: 5,
		Seed:       2,
	}
}

func TestFacadeDevelopmentTime(t *testing.T) {
	app, _ := buildApp(t)
	if app.BaselineQoS <= 0 {
		t.Fatalf("baseline QoS = %v", app.BaselineQoS)
	}
	res, err := app.TuneDevelopmentTime(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve.Len() == 0 {
		t.Fatal("empty curve")
	}
	for _, pt := range res.Curve.Points {
		if pt.QoS <= app.BaselineQoS-10 {
			t.Errorf("point below budget: %v", pt.QoS)
		}
	}
}

func TestFacadeEmpiricalMode(t *testing.T) {
	app, _ := buildApp(t)
	spec := quickSpec()
	spec.Empirical = true
	spec.MaxIters = 60
	spec.StallLimit = 60
	res, err := app.TuneDevelopmentTime(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve.Len() == 0 {
		t.Fatal("empirical tuning found nothing")
	}
}

func TestFacadeCurveRoundTrip(t *testing.T) {
	app, b := buildApp(t)
	res, err := app.TuneDevelopmentTime(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	data, err := approxtuner.SaveCurve(res.Curve)
	if err != nil {
		t.Fatal(err)
	}
	back, err := approxtuner.LoadCurve(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != res.Curve.Len() || back.Program != res.Curve.Program {
		t.Fatal("curve round trip lost data")
	}
	// Every shipped config must validate against the graph.
	for _, pt := range back.Points {
		if err := approxtuner.Validate(b.Model.Graph, pt.Config); err != nil {
			t.Fatalf("shipped config invalid: %v", err)
		}
	}
}

func TestFacadeInstallAndRuntime(t *testing.T) {
	app, _ := buildApp(t)
	dev, err := app.TuneDevelopmentTime(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	gpu := approxtuner.TX2GPU()
	inst, err := app.RefineOnDevice(dev.Curve, gpu, quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if inst.Curve.Len() == 0 {
		t.Fatal("refined curve empty")
	}
	target := gpu.Time(app.Program().Costs(), nil)
	rt, err := app.NewRuntime(inst.Curve, approxtuner.PolicyEnforce, target, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, idx := rt.Acquire()
	rt.RecordInvocationAt(idx, target*1.5)
	if pt, _ := rt.Acquire(); pt.Perf < 1 {
		t.Errorf("runtime picked Perf %v", pt.Perf)
	}
}

func TestFacadeDistributedInstall(t *testing.T) {
	app, _ := buildApp(t)
	dev, err := app.TuneDevelopmentTime(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	gpu := approxtuner.TX2GPU()
	inst, err := app.TuneInstallTime(dev, gpu, quickSpec(), approxtuner.MinimizeEnergy, 3)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Curve.Len() == 0 {
		t.Fatal("install-time curve empty")
	}
	for _, pt := range inst.Curve.Points {
		if pt.Perf < 0.99 {
			t.Errorf("energy reduction %v below 1", pt.Perf)
		}
	}
}

func TestFacadeMeasurements(t *testing.T) {
	app, _ := buildApp(t)
	gpu, cpu := approxtuner.TX2GPU(), approxtuner.TX2CPU()
	cfg := approxtuner.Config{}
	for _, op := range app.Program().Ops() {
		cfg[op] = 1 // FP16 everywhere
	}
	if sp := app.MeasureSpeedup(cfg, gpu); sp <= 1 {
		t.Errorf("FP16 GPU speedup = %v", sp)
	}
	if er := app.MeasureEnergyReduction(cfg, gpu); er <= 1 {
		t.Errorf("FP16 GPU energy reduction = %v", er)
	}
	if !cpu.SupportsKnob(0) || cpu.SupportsKnob(1) {
		t.Error("CPU should support FP32 but not FP16")
	}
	acc := app.Evaluate(nil)
	if acc < 0 || acc > 100 || math.IsNaN(acc) {
		t.Errorf("Evaluate(baseline) = %v", acc)
	}
	if got := approxtuner.DescribeConfig(cfg); got == "" {
		t.Error("empty config description")
	}
}

func TestFacadeImageApp(t *testing.T) {
	b := models.MustBuild("lenet", models.Scale{Images: 8, Width: 0.125, Seed: 3})
	calib, test := b.Dataset.Split()
	// PSNR-based QoS over the CNN graph itself (gold = its own exact run).
	app, err := approxtuner.NewImageApp(b.Model.Graph, calib.Images, test.Images)
	if err != nil {
		t.Fatal(err)
	}
	if app.BaselineQoS != 100 {
		t.Errorf("image app baseline PSNR = %v, want 100 (identical)", app.BaselineQoS)
	}
}

func TestFacadeValidateRejectsBadConfig(t *testing.T) {
	_, b := buildApp(t)
	bad := approxtuner.Config{999: 1}
	if err := approxtuner.Validate(b.Model.Graph, bad); err == nil {
		t.Fatal("out-of-range op must be rejected")
	}
}

func TestFacadeBundleWorkflow(t *testing.T) {
	app, _ := buildApp(t)
	fp32Spec := quickSpec()
	fp32Spec.DisableFP16 = true
	fp32Res, err := app.TuneDevelopmentTime(fp32Spec)
	if err != nil {
		t.Fatal(err)
	}
	fp16Res, err := app.TuneDevelopmentTime(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := app.ShipBundle(fp32Res, fp16Res)
	if err != nil {
		t.Fatal(err)
	}
	data, err := bundle.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := approxtuner.LoadBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Select(approxtuner.TX2CPU()) != loaded.FP32 {
		t.Error("CPU must select the FP32 curve")
	}
	if loaded.Select(approxtuner.TX2GPU()) != loaded.FP16 {
		t.Error("GPU must select the FP16 curve")
	}
}

func TestFacadeCompileModelJSON(t *testing.T) {
	g, classes, err := approxtuner.CompileModelJSON([]byte(`{
	  "name": "t", "classes": 10, "seed": 1,
	  "input": {"channels": 1, "height": 8, "width": 8},
	  "layers": [
	    {"type": "conv", "filters": 4, "kernel": 3, "pad": 1, "activation": "relu"},
	    {"type": "global_avg_pool"},
	    {"type": "dense", "units": 10},
	    {"type": "softmax"}
	  ]}`))
	if err != nil {
		t.Fatal(err)
	}
	if classes != 10 || g.LayerCount() != 2 {
		t.Fatalf("classes=%d layers=%d", classes, g.LayerCount())
	}
	if _, _, err := approxtuner.CompileModelJSON([]byte("junk")); err == nil {
		t.Fatal("junk must not compile")
	}
}
