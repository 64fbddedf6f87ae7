// Package approxtuner is the public API of this ApproxTuner
// reproduction — a compiler and runtime system for adaptive
// approximations in tensor-based applications (Sharif et al., PPoPP
// 2021).
//
// The workflow mirrors the paper's three phases:
//
//	app, _ := approxtuner.NewCNNApp(g, calibImgs, calibLabels, testImgs, testLabels)
//	dev, _ := app.TuneDevelopmentTime(approxtuner.TuneSpec{MaxQoSLoss: 1})
//	gpu := approxtuner.TX2GPU()
//	inst, _ := app.TuneInstallTime(dev, gpu, approxtuner.TuneSpec{MaxQoSLoss: 1})
//	rt, _ := app.NewRuntime(inst.Curve, approxtuner.PolicyAverage, targetTime, 1)
//
// Development-time tuning explores hardware-independent approximations
// (FP16, filter sampling, perforated convolutions, reduction sampling)
// with the predictive models Π1/Π2 and ships a relaxed tradeoff curve;
// install-time tuning refines the curve with device measurements and,
// when the PROMISE analog accelerator is present, runs distributed
// predictive tuning over its voltage knobs; the runtime picks
// configurations off the final curve to hold a performance target.
//
// The heavy lifting lives in the internal packages (tensor kernels, the
// dataflow-graph IR, knob registry, autotuner, predictors, device models);
// this package assembles them behind a stable surface.
package approxtuner

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/predictor"
	"repro/internal/qos"
	"repro/internal/tensor"
)

// Re-exported building blocks. The aliases keep user code in one import.
type (
	// Config maps tensor-operation IDs to approximation knob values.
	Config = approx.Config
	// Curve is a shipped QoS/performance tradeoff curve.
	Curve = pareto.Curve
	// TradeoffPoint is one (QoS, Perf, config) entry of a curve.
	TradeoffPoint = pareto.Point
	// Graph is the ApproxHPVM-style tensor dataflow IR.
	Graph = graph.Graph
	// Tensor is the dense float32 tensor the kernels operate on.
	Tensor = tensor.Tensor
	// Device is a modeled edge compute unit (performance/energy/DVFS).
	Device = device.Device
	// Runtime is the run-time approximation controller.
	Runtime = core.RuntimeTuner
	// Result bundles a tuning run's curve, stats and profiles.
	Result = core.Result
	// InstallResult bundles an install-time run's curve and stats.
	InstallResult = core.InstallResult
	// Metric scores program outputs (higher is better).
	Metric = qos.Metric
)

// Predictor model selectors.
const (
	Pi1 = predictor.Pi1
	Pi2 = predictor.Pi2
)

// Runtime policies (§5).
const (
	PolicyEnforce = core.PolicyEnforce
	PolicyAverage = core.PolicyAverage
)

// Install-time objectives.
const (
	MinimizeTime   = core.MinimizeTime
	MinimizeEnergy = core.MinimizeEnergy
)

// TX2GPU returns the Jetson TX2 GPU device model (with on-chip PROMISE).
func TX2GPU() *Device { return device.NewTX2GPU() }

// TX2CPU returns the Jetson TX2 CPU device model (no FP16 pipeline).
func TX2CPU() *Device { return device.NewTX2CPU() }

// App is a tunable application: a tensor program plus its calibration and
// test inputs and QoS metrics.
type App struct {
	prog core.Program
	// BaselineQoS is the exact-execution QoS on the calibration inputs.
	BaselineQoS float64
}

// Program exposes the underlying core program (for advanced use).
func (a *App) Program() core.Program { return a.prog }

// NewCNNApp wraps a CNN graph with classification-accuracy QoS over a
// calibration/test split.
func NewCNNApp(g *Graph, calibImages *Tensor, calibLabels []int, testImages *Tensor, testLabels []int) (*App, error) {
	gp, err := core.NewGraphProgram(g, calibImages, testImages,
		qos.Accuracy{Labels: calibLabels}, qos.Accuracy{Labels: testLabels})
	if err != nil {
		return nil, err
	}
	gp.CalibMetricFor = func(lo, hi int) qos.Metric {
		return qos.Accuracy{Labels: calibLabels[lo:hi]}
	}
	return newApp(gp)
}

// NewImageApp wraps an image-processing graph with PSNR QoS against the
// exact pipeline's own outputs.
func NewImageApp(g *Graph, calibImages, testImages *Tensor) (*App, error) {
	goldCalib := g.Execute(calibImages, nil, graph.ExecOptions{})
	goldTest := g.Execute(testImages, nil, graph.ExecOptions{})
	gp, err := core.NewGraphProgram(g, calibImages, testImages,
		qos.PSNR{Gold: goldCalib}, qos.PSNR{Gold: goldTest})
	if err != nil {
		return nil, err
	}
	return newApp(gp)
}

// NewApp wraps an arbitrary core.Program (e.g. the composite CNN + Canny
// benchmark).
func NewApp(p core.Program) (*App, error) {
	return newApp(p)
}

func newApp(p core.Program) (*App, error) {
	out := p.Run(nil, core.Calib, nil)
	return &App{prog: p, BaselineQoS: p.Score(core.Calib, out)}, nil
}

// TuneSpec is the user-facing tuning specification: only an end-to-end
// quality requirement plus optional effort bounds, per the paper's
// "requiring only high-level end-to-end quality specifications".
type TuneSpec struct {
	// MaxQoSLoss is the acceptable end-to-end QoS degradation (e.g. 1.0
	// for one percentage point of accuracy). QoSMin = baseline − loss.
	MaxQoSLoss float64
	// Model selects Π1 or Π2 (default Π2).
	Model predictor.Model
	// MaxIters / StallLimit bound the search (defaults 30000 / 1000).
	MaxIters   int
	StallLimit int
	// MaxConfigs bounds the shipped curve (default 50).
	MaxConfigs int
	// NCalibrate is the number of α-calibration measurements (default 50).
	NCalibrate int
	// AllowFP16 includes half-precision knobs (default true; ship a
	// second FP32-only curve for devices without FP16 support).
	DisableFP16 bool
	// Empirical switches development-time tuning to conventional
	// measurement-based search (the paper's comparison baseline).
	Empirical bool
	Seed      int64
}

func (s TuneSpec) options(baseQoS float64) core.Options {
	return core.Options{
		QoSMin:     baseQoS - s.MaxQoSLoss,
		Model:      s.Model,
		NCalibrate: s.NCalibrate,
		MaxIters:   s.MaxIters,
		StallLimit: s.StallLimit,
		MaxConfigs: s.MaxConfigs,
		Policy:     core.KnobPolicy{AllowFP16: !s.DisableFP16},
		Seed:       s.Seed,
	}
}

// TuneDevelopmentTime runs the development-time phase and returns the
// relaxed tradeoff curve over hardware-independent approximations.
func (a *App) TuneDevelopmentTime(spec TuneSpec) (*Result, error) {
	o := spec.options(a.BaselineQoS)
	if spec.Empirical {
		return core.EmpiricalTune(a.prog, o)
	}
	return core.PredictiveTune(a.prog, o)
}

// TuneInstallTime refines a development-time result on a device. When the
// device hosts hardware-specific approximations (PROMISE), distributed
// predictive tuning over nEdge simulated edge devices explores them;
// otherwise the shipped curve is re-measured and filtered.
func (a *App) TuneInstallTime(dev *Result, d *Device, spec TuneSpec, objective core.Objective, nEdge int) (*InstallResult, error) {
	io := core.InstallOptions{
		Options:   spec.options(a.BaselineQoS),
		Device:    d,
		Objective: objective,
		NEdge:     nEdge,
	}
	if dev.Profiles == nil {
		return core.RefineCurve(a.prog, dev.Curve, io)
	}
	return core.InstallTune(a.prog, dev.Profiles, io)
}

// RefineOnDevice is the software-only install-time path: re-measure and
// filter a shipped curve on the device without hardware knobs.
func (a *App) RefineOnDevice(curve *Curve, d *Device, spec TuneSpec) (*InstallResult, error) {
	return core.RefineCurve(a.prog, curve, core.InstallOptions{
		Options: spec.options(a.BaselineQoS),
		Device:  d,
	})
}

// NewRuntime builds the run-time controller over a final curve.
// targetTime is the per-invocation time to hold; window is the sliding
// window in invocations.
func (a *App) NewRuntime(curve *Curve, policy core.Policy, targetTime float64, window int) (*Runtime, error) {
	return core.NewRuntimeTuner(curve, policy, targetTime, window, 1)
}

// Evaluate runs a configuration on the test inputs and returns its QoS.
func (a *App) Evaluate(cfg Config) float64 {
	out := a.prog.Run(cfg, core.Test, tensor.NewRNG(99))
	return a.prog.Score(core.Test, out)
}

// MeasureSpeedup reports the modeled speedup of cfg over the baseline on
// a device.
func (a *App) MeasureSpeedup(cfg Config, d *Device) float64 {
	costs := a.prog.Costs()
	return d.Time(costs, nil) / d.Time(costs, cfg)
}

// MeasureEnergyReduction reports the modeled energy reduction of cfg over
// the baseline on a device.
func (a *App) MeasureEnergyReduction(cfg Config, d *Device) float64 {
	costs := a.prog.Costs()
	return d.Energy(costs, nil) / d.Energy(costs, cfg)
}

// ShipBundle packages the development-time results into the artifact
// shipped with the application binary: the FP32-only curve (universal)
// plus, optionally, the FP16 curve for devices with half-precision
// hardware (§3.5: "creating two separate curves - one each for FP32 and
// FP16"). Load it back with LoadBundle and pick a device's curve with
// Bundle.Select.
func (a *App) ShipBundle(fp32, fp16 *Result) (*artifact.Bundle, error) {
	var fp16Curve *pareto.Curve
	if fp16 != nil {
		fp16Curve = fp16.Curve
	}
	return artifact.New(a.prog.Name(), fp32.Curve, fp16Curve)
}

// Bundle is the shipped dual-curve artifact.
type Bundle = artifact.Bundle

// LoadBundle parses and integrity-checks a shipped bundle.
func LoadBundle(data []byte) (*Bundle, error) { return artifact.Load(data) }

// CompileModelJSON compiles a declarative JSON network description (the
// stand-in for the paper's Keras/PyTorch frontends) into a dataflow graph
// with synthetic weights. See internal/models.ModelSpec for the schema.
func CompileModelJSON(data []byte) (*Graph, int, error) {
	m, err := models.FromJSON(data)
	if err != nil {
		return nil, 0, err
	}
	return m.Graph, m.Classes, nil
}

// DescribeConfig renders a configuration's knob families in the notation
// of the paper's Table 3 ("FP16:13 perf-50%:6 ...").
func DescribeConfig(cfg Config) string { return cfg.FormatGroupCounts() }

// SaveCurve and LoadCurve (de)serialize shipped tradeoff curves.
func SaveCurve(c *Curve) ([]byte, error) { return c.Marshal() }

// LoadCurve parses a shipped curve.
func LoadCurve(data []byte) (*Curve, error) { return pareto.UnmarshalCurve(data) }

// Validate checks a configuration against a graph's knob applicability
// rules (for configurations loaded from external curves).
func Validate(g *Graph, cfg Config) error {
	if err := g.ValidateConfig(cfg); err != nil {
		return fmt.Errorf("approxtuner: %w", err)
	}
	return nil
}
