package bench

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/canny"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/predictor"
	"repro/internal/qos"
)

// Fig7 regenerates Figure 7: the combined CNN + Canny benchmark tuned for
// a 3×3 grid of (accuracy, PSNR) threshold pairs; each cell reports the
// best GPU speedup. Only Π2 applies (variable output shapes, §7.6).
func Fig7(s *Session) *Report {
	r := &Report{
		Name:   "fig7",
		Title:  "CNN+Canny: speedups over a grid of (accuracy, PSNR) thresholds",
		Header: []string{"ΔAcc\\PSNR", "PSNR≥30", "PSNR≥25", "PSNR≥20"},
	}
	cfg := s.Cfg()
	scale := models.Scale{Images: cfg.Images, Width: cfg.Width, ImageNetSize: cfg.ImageNetSize, Seed: cfg.Seed}
	b := models.MustBuild("alexnet2", scale)
	gpu := device.NewTX2GPU()

	comp, err := canny.NewComposite(b, 0, 0)
	if err != nil {
		panic(fmt.Sprintf("bench: fig7 composite: %v", err))
	}
	// Thresholds are relative to the calibration-set baseline pair, which
	// differs from the full-set accuracy at small N.
	baseAcc, _ := comp.BaselinePair(core.Calib)

	accDrops := []float64{1, 2, 3}
	psnrMins := []float64{30, 25, 20}
	var firstCell, lastCell float64
	for _, dAcc := range accDrops {
		row := []string{fmt.Sprintf("Δacc %.0f%%", dAcc)}
		for _, pmin := range psnrMins {
			comp.SetThresholds(baseAcc-dAcc, pmin)
			o := s.tuneOptions(0, predictor.Pi2, core.KnobPolicy{AllowFP16: true})
			res, err := core.PredictiveTune(comp, o)
			if err != nil {
				panic(fmt.Sprintf("bench: fig7 tune: %v", err))
			}
			sp := 1.0
			if pt, ok := res.Curve.Best(0); ok {
				costs := comp.Costs()
				sp = gpu.Time(costs, nil) / gpu.Time(costs, pt.Config)
			}
			if dAcc == accDrops[0] && pmin == psnrMins[0] {
				firstCell = sp
			}
			if dAcc == accDrops[len(accDrops)-1] && pmin == psnrMins[len(psnrMins)-1] {
				lastCell = sp
			}
			row = append(row, f2(sp))
		}
		r.Rows = append(r.Rows, row)
	}
	r.AddMeasure("fig7_tightest_cell_speedup", firstCell)
	r.AddMeasure("fig7_loosest_cell_speedup", lastCell)
	r.Notes = append(r.Notes,
		"paper: speedup increases as either threshold is relaxed; only Π2 applies (variable output shape)")
	return r
}

// Pruning regenerates the §8 preliminary study: magnitude-pruned models
// plus empirical perforation/sampling tuning reduce MACs by a further
// ~1.2–1.3x at under 1 percentage point of accuracy loss relative to the
// pruned model.
func Pruning(s *Session) *Report {
	r := &Report{
		Name:   "pruning",
		Title:  "Approximations on magnitude-pruned models (§8): extra MAC reduction",
		Header: []string{"Benchmark", "pruned-acc", "tuned-acc", "MAC-reduction"},
	}
	cfg := s.Cfg()
	names := []string{"mobilenet", "vgg16_10", "resnet18"}
	if len(cfg.Benchmarks) > 0 {
		names = cfg.Benchmarks
	}
	var reductions []float64
	for _, name := range names {
		scale := models.Scale{Images: cfg.Images, Width: cfg.Width, ImageNetSize: cfg.ImageNetSize, Seed: cfg.Seed + 50}
		b := models.MustBuild(name, scale)
		models.Prune(b.Model, 0.5)
		// Re-plant labels against the pruned model so its accuracy is the
		// §8 baseline ("compared with the pruned model").
		prunedAcc := models.PlantLabels(b.Model, b.Dataset, b.BaselineAcc, 32, cfg.Seed+60)

		calib, test := b.Dataset.Split()
		gp, err := core.NewGraphProgram(b.Model.Graph, calib.Images, test.Images,
			accuracyMetric(calib.Labels), accuracyMetric(test.Labels))
		if err != nil {
			panic(fmt.Sprintf("bench: pruning %s: %v", name, err))
		}
		o := s.tuneOptions(prunedAcc-1, predictor.Pi2, core.KnobPolicy{AllowFP16: false})
		o.MaxIters, o.StallLimit = cfg.EmpIters, cfg.EmpIters
		res, err := core.EmpiricalTune(gp, o)
		if err != nil {
			panic(fmt.Sprintf("bench: pruning tune %s: %v", name, err))
		}
		tunedAcc, macRed := prunedAcc, 1.0
		if pt, ok := res.Curve.Best(prunedAcc - 1); ok {
			tunedAcc = pt.QoS
			in := b.Model.InputShape(1)
			full, _ := b.Model.Graph.TotalMACs(in, nil)
			reduced, _ := b.Model.Graph.TotalMACs(in, func(op int) float64 {
				rc, _ := costFactorsOf(pt.Config.Knob(op))
				return rc
			})
			if reduced > 0 {
				macRed = full / reduced
			}
		}
		reductions = append(reductions, macRed)
		r.Rows = append(r.Rows, []string{name, f2(prunedAcc), f2(tunedAcc), f2(macRed) + "x"})
	}
	r.AddMeasure("pruned_mac_reduction_geomean", Geomean(reductions))
	r.Notes = append(r.Notes, "paper: 1.3x (MobileNet, VGG-16) and 1.2x (ResNet-18) MAC reduction at <1pp loss")
	return r
}

func accuracyMetric(labels []int) qos.Metric { return qos.Accuracy{Labels: labels} }

func costFactorsOf(id approx.KnobID) (rc, rm float64) { return approx.CostFactors(id) }
