package bench

import (
	"fmt"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/pareto"
	"repro/internal/predictor"
)

// Fig4 regenerates Figure 4: energy reductions on GPU + PROMISE with
// install-time distributed predictive tuning (Π1 and Π2) versus empirical
// tuning, for ΔQoS 3 %, plus the §7.4 tuning-time split (edge profile
// collection vs server autotuning).
func Fig4(s *Session) *Report {
	r := &Report{
		Name:   "fig4",
		Title:  "Install-time GPU+PROMISE energy reductions at ΔQoS 3%",
		Header: []string{"Benchmark", "Π1", "Π2", "Empirical", "edge-prof", "server-tune"},
	}
	var e1, e2, eE []float64
	for _, name := range s.Cfg().names() {
		e := s.Entry(name)
		qosMin := s.CalibBaseline(name) - 3
		gpu := device.NewTX2GPU()
		devRes := s.DevTune(name, 3, predictor.Pi2, true)

		get := func(model predictor.Model) (*core.InstallResult, float64) {
			res, err := core.InstallTune(e.prog, devRes.Profiles, core.InstallOptions{
				Options:   s.tuneOptions(qosMin, model, core.KnobPolicy{AllowFP16: true}),
				Device:    gpu,
				Objective: core.MinimizeEnergy,
				NEdge:     4,
			})
			if err != nil {
				panic(fmt.Sprintf("bench: %s install %v: %v", name, model, err))
			}
			if pt, ok := res.Curve.Best(qosMin); ok {
				return res, pt.Perf
			}
			return res, 1
		}
		res1, v1 := get(predictor.Pi1)
		_, v2 := get(predictor.Pi2)

		// Empirical install-time comparison: measurement-based search over
		// the combined software+hardware knob space, optimizing measured
		// energy on the device.
		vE := 1.0
		{
			o := s.tuneOptions(qosMin, predictor.Pi2, core.KnobPolicy{AllowFP16: true, IncludeHardware: true})
			o.MaxIters, o.StallLimit = s.cfg.EmpIters, s.cfg.EmpIters
			costs := e.prog.Costs()
			o.PerfModel = func(cfg approx.Config) float64 {
				return gpu.Energy(costs, nil) / gpu.Energy(costs, cfg)
			}
			empRes, err := core.EmpiricalTune(e.prog, o)
			if err != nil {
				panic(fmt.Sprintf("bench: %s empirical install: %v", name, err))
			}
			if pt, ok := empRes.Curve.Best(qosMin); ok {
				vE = pt.Perf
			}
		}
		e1 = append(e1, v1)
		e2 = append(e2, v2)
		eE = append(eE, vE)
		r.Rows = append(r.Rows, []string{
			name, f2(v1), f2(v2), f2(vE),
			res1.Stats.EdgeProfileTime.Round(time.Millisecond).String(),
			res1.Stats.ServerTuneTime.Round(time.Millisecond).String(),
		})
	}
	r.Rows = append(r.Rows, []string{"geomean", f2(Geomean(e1)), f2(Geomean(e2)), f2(Geomean(eE)), "", ""})
	r.AddMeasure("install_energy_pi1_geomean", Geomean(e1))
	r.AddMeasure("install_energy_pi2_geomean", Geomean(e2))
	r.AddMeasure("install_energy_empirical_geomean", Geomean(eE))
	r.Notes = append(r.Notes, "paper: Π1 4.7x, Π2 3.3x, empirical 4.8x energy reduction (geomean)")
	return r
}

// Fig5 regenerates Figure 5: GPU, DDR and total system power across the
// DVFS ladder (measured while running ResNet-18 in the paper; the rails
// model is workload-independent here).
func Fig5(s *Session) *Report {
	r := &Report{
		Name:   "fig5",
		Title:  "GPU/DDR/SYS power vs GPU frequency",
		Header: []string{"Freq(MHz)", "GPU(W)", "DDR(W)", "SYS(W)"},
	}
	gpu := device.NewTX2GPU()
	var gHi, gLo, sHi, sLo float64
	for i, f := range device.Freqs {
		gpu.SetFrequencyMHz(f)
		g, d, sys := gpu.Rails()
		if i == 0 {
			gHi, sHi = g, sys
		}
		if i == len(device.Freqs)-1 {
			gLo, sLo = g, sys
		}
		r.Rows = append(r.Rows, []string{fmt.Sprintf("%.0f", f), f2(g), f2(d), f2(sys)})
	}
	r.AddMeasure("gpu_power_ratio", gHi/gLo)
	r.AddMeasure("sys_power_ratio", sHi/sLo)
	r.Notes = append(r.Notes, "paper: ~7x GPU and ~1.9x SYS power drop from 1300 to 318 MHz; DDR nearly flat")
	return r
}

// Fig6Row is one frequency step of the runtime-adaptation experiment.
type Fig6Row struct {
	FreqMHz          float64
	BaselineNormTime float64 // no adaptation
	AdaptedNormTime  float64
	AdaptedAccuracy  float64
	BaselineAccuracy float64
	ConfigSwitches   int
}

// Fig6 regenerates Figure 6: runtime approximation tuning holds batch
// time near 1.0 across the DVFS ladder while gracefully degrading
// accuracy, for the three CNNs the paper plots (ResNet-18,
// AlexNet-ImageNet, AlexNet2).
func Fig6(s *Session) *Report {
	r := &Report{
		Name:   "fig6",
		Title:  "Runtime adaptation under DVFS (normalized time / accuracy)",
		Header: []string{"Benchmark", "Freq", "base-time", "adapt-time", "accuracy", "Δacc"},
	}
	names := []string{"resnet18", "alexnet_imagenet", "alexnet2"}
	if len(s.Cfg().Benchmarks) > 0 {
		names = s.Cfg().Benchmarks
	}
	for _, name := range names {
		rows := RunFig6(s, name)
		e := s.Entry(name)
		_ = e
		for _, row := range rows {
			r.Rows = append(r.Rows, []string{
				name, fmt.Sprintf("%.0f", row.FreqMHz),
				f2(row.BaselineNormTime), f2(row.AdaptedNormTime),
				f2(row.AdaptedAccuracy), f2(row.BaselineAccuracy - row.AdaptedAccuracy),
			})
		}
		last := rows[len(rows)-1]
		r.AddMeasure(name+"_baseline_slowdown_at_319MHz", last.BaselineNormTime)
		r.AddMeasure(name+"_adapted_time_at_319MHz", last.AdaptedNormTime)
	}
	r.Notes = append(r.Notes,
		"paper (ResNet-18): 1.45x potential slowdown at 675MHz countered with 0.33pp accuracy; 1.75x at 497MHz with 1.25pp")
	return r
}

// RunFig6 simulates the runtime-adaptation experiment for one benchmark
// across the full DVFS ladder and returns the per-frequency rows.
func RunFig6(s *Session, name string) []Fig6Row {
	rows, _ := RunFig6Health(s, name)
	return rows
}

// RunFig6Health is RunFig6 plus the runtime tuner's health snapshot.
// When cfg.FaultSlowdown > 1, measured batch times are additionally
// multiplied by that factor over the second half of the DVFS ladder —
// an injected fault the shipped curve knows nothing about, which the
// tuner's drift detectors should surface as alarms and a latched
// recalibration signal (the DVFS ladder itself is modeled by the device
// and stays fault-free).
func RunFig6Health(s *Session, name string) ([]Fig6Row, core.RuntimeHealth) {
	d := newDVFSRuntime(s, name)
	rt := d.tuner(core.PolicyAverage, s.cfg.Seed)
	defer rt.Close()
	baseAcc := d.e.prog.Score(core.Test, d.e.prog.BaselineOut(core.Test))

	const batches = 24
	var rows []Fig6Row
	for fi, f := range device.Freqs {
		d.gpu.SetFrequencyMHz(f)
		baseTime := d.gpu.Time(d.costs, nil)
		// Injected fault: an unmodeled slowdown over the second half of
		// the ladder (cache pollution, thermal throttling beyond DVFS, a
		// co-scheduled tenant — anything calibration never saw).
		fault := 1.0
		if s.cfg.FaultSlowdown > 1 && fi >= len(device.Freqs)/2 {
			fault = s.cfg.FaultSlowdown
		}
		var sumTime, sumAcc float64
		startSwitches := rt.Switches()
		for b := 0; b < batches; b++ {
			bt, acc := d.invoke(rt, fault)
			sumTime += bt
			sumAcc += acc
		}
		rows = append(rows, Fig6Row{
			FreqMHz:          f,
			BaselineNormTime: baseTime / d.target,
			AdaptedNormTime:  sumTime / float64(batches) / d.target,
			AdaptedAccuracy:  sumAcc / float64(batches),
			BaselineAccuracy: baseAcc,
			ConfigSwitches:   rt.Switches() - startSwitches,
		})
	}
	return rows, rt.Health()
}

// dvfsRuntime is the simulated-DVFS setup that Fig. 6 and the runtime
// policy comparison share: the install-time refined curve (time
// objective, ΔQoS 3) on the TX2 GPU model, the baseline batch time at
// the highest frequency as the target, and a per-configuration cache of
// test accuracy.
type dvfsRuntime struct {
	e      *entry
	gpu    *device.Device
	costs  []graph.NodeCost
	curve  *pareto.Curve
	target float64
	nOps   int
	acc    map[string]float64
}

func newDVFSRuntime(s *Session, name string) *dvfsRuntime {
	e := s.Entry(name)
	d := &dvfsRuntime{e: e, gpu: device.NewTX2GPU(), costs: e.prog.Costs(),
		nOps: len(e.bench.Model.Graph.Nodes), acc: map[string]float64{}}
	qosMin := s.CalibBaseline(name) - 3
	devRes := s.DevTune(name, 3, predictor.Pi2, true)
	inst, err := core.RefineCurve(e.prog, devRes.Curve, core.InstallOptions{
		Options: s.tuneOptions(qosMin, predictor.Pi2, core.KnobPolicy{AllowFP16: true}),
		Device:  d.gpu,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %s runtime curve: %v", name, err))
	}
	d.curve = inst.Curve
	d.gpu.SetFrequencyMHz(device.Freqs[0])
	d.target = d.gpu.Time(d.costs, nil)
	return d
}

// tuner builds a runtime controller over the refined curve with a
// one-batch window.
func (d *dvfsRuntime) tuner(policy core.Policy, seed int64) *core.RuntimeTuner {
	rt, err := core.NewRuntimeTuner(d.curve, policy, d.target, 1, seed)
	if err != nil {
		panic(fmt.Sprintf("bench: runtime tuner: %v", err))
	}
	return rt
}

// invoke runs one batch under the configuration rt hands out at the
// current frequency, its time scaled by fault, reports the time back to
// rt, and returns it with the configuration's test accuracy.
func (d *dvfsRuntime) invoke(rt *core.RuntimeTuner, fault float64) (batchTime, accuracy float64) {
	pt, idx := rt.Acquire()
	batchTime = d.gpu.Time(d.costs, pt.Config) * fault
	key := pt.Config.Key(d.nOps)
	accuracy, ok := d.acc[key]
	if !ok {
		accuracy = d.e.prog.Score(core.Test, d.e.prog.Run(pt.Config, core.Test, nil))
		d.acc[key] = accuracy
	}
	rt.RecordInvocationAt(idx, batchTime)
	return batchTime, accuracy
}
