// Package bench contains the experiment runners that regenerate every
// table and figure of the paper's evaluation (§6–7), shared between
// cmd/benchtab and the repository's testing.B benchmarks. Each experiment
// produces a Report with the same rows/series the paper presents;
// EXPERIMENTS.md records paper-vs-measured values.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/qos"
	"repro/internal/tensor"
)

// Config sizes the experiment suite. Zero values take defaults sized for
// a single-core host; the paper's full-scale settings are recorded in
// DESIGN.md §1.
type Config struct {
	// Benchmarks restricts the CNN set (nil = all ten).
	Benchmarks []string
	// Images is the dataset size per benchmark (split 50/50).
	Images int
	// Width is the channel-width multiplier; HeavyWidth overrides it for
	// the two largest networks (resnet50, vgg16_imagenet).
	Width, HeavyWidth float64
	// ImageNetSize is the mini-ImageNet resolution.
	ImageNetSize int
	// MaxIters / StallLimit bound predictive searches; EmpIters bounds
	// empirical searches (each empirical iteration runs the network).
	MaxIters, StallLimit, EmpIters int
	// NCalibrate is the α-calibration sample count.
	NCalibrate int
	// MaxConfigs caps validated/shipped curves (paper: 50).
	MaxConfigs int
	Seed       int64
}

// Defaults returns the standard single-core-host configuration.
func Defaults() Config {
	return Config{
		Images:       64,
		Width:        0.25,
		HeavyWidth:   0.125,
		ImageNetSize: 48,
		MaxIters:     4000,
		StallLimit:   800,
		EmpIters:     300,
		NCalibrate:   20,
		MaxConfigs:   50,
		Seed:         1,
	}
}

// Quick returns a configuration small enough for unit-test-speed runs.
func Quick() Config {
	return Config{
		Benchmarks:   []string{"lenet", "alexnet2"},
		Images:       24,
		Width:        0.125,
		HeavyWidth:   0.125,
		ImageNetSize: 32,
		MaxIters:     400,
		StallLimit:   200,
		EmpIters:     80,
		NCalibrate:   8,
		MaxConfigs:   20,
		Seed:         1,
	}
}

func (c Config) norm() Config {
	d := Defaults()
	if c.Images == 0 {
		c.Images = d.Images
	}
	if c.Width == 0 {
		c.Width = d.Width
	}
	if c.HeavyWidth == 0 {
		c.HeavyWidth = d.HeavyWidth
	}
	if c.ImageNetSize == 0 {
		c.ImageNetSize = d.ImageNetSize
	}
	if c.MaxIters == 0 {
		c.MaxIters = d.MaxIters
	}
	if c.StallLimit == 0 {
		c.StallLimit = d.StallLimit
	}
	if c.EmpIters == 0 {
		c.EmpIters = d.EmpIters
	}
	if c.NCalibrate == 0 {
		c.NCalibrate = d.NCalibrate
	}
	if c.MaxConfigs == 0 {
		c.MaxConfigs = d.MaxConfigs
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

func (c Config) names() []string {
	if len(c.Benchmarks) > 0 {
		return c.Benchmarks
	}
	return models.Names()
}

// heavy benchmarks take the HeavyWidth override.
var heavy = map[string]bool{"resnet50": true, "vgg16_imagenet": true}

// Session caches built benchmarks, programs and tuning artifacts so the
// experiments share work (profile collection dominates cost and is reused
// across thresholds and predictors).
type Session struct {
	cfg     Config
	entries map[string]*entry
}

type entry struct {
	bench    *models.Benchmark
	prog     *core.GraphProgram
	calib    []int               // calibration labels
	profiles *predictor.Profiles // hardware-independent, FP16 included
	profTime time.Duration       // wall-clock of profile collection
	results  map[string]*core.Result
}

// NewSession builds an empty session.
func NewSession(cfg Config) *Session {
	return &Session{cfg: cfg.norm(), entries: make(map[string]*entry)}
}

// Cfg returns the session's normalized configuration.
func (s *Session) Cfg() Config { return s.cfg }

// Entry lazily builds (and caches) a benchmark and its tunable program.
func (s *Session) Entry(name string) *entry {
	if e, ok := s.entries[name]; ok {
		return e
	}
	scale := models.Scale{
		Images:       s.cfg.Images,
		Width:        s.cfg.Width,
		ImageNetSize: s.cfg.ImageNetSize,
		Seed:         s.cfg.Seed,
	}
	if heavy[name] {
		scale.Width = s.cfg.HeavyWidth
	}
	b := models.MustBuild(name, scale)
	calib, test := b.Dataset.Split()
	gp, err := core.NewGraphProgram(b.Model.Graph, calib.Images, test.Images,
		qos.Accuracy{Labels: calib.Labels}, qos.Accuracy{Labels: test.Labels})
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", name, err))
	}
	gp.CalibMetricFor = func(lo, hi int) qos.Metric {
		return qos.Accuracy{Labels: calib.Labels[lo:hi]}
	}
	e := &entry{bench: b, prog: gp, calib: calib.Labels, results: make(map[string]*core.Result)}
	s.entries[name] = e
	return e
}

// Profiles lazily collects (and caches) the hardware-independent profiles
// for a benchmark, FP16 knobs included — a superset usable by FP32-only
// tuning too.
func (s *Session) Profiles(name string) *predictor.Profiles {
	e := s.Entry(name)
	if e.profiles == nil {
		pol := core.KnobPolicy{AllowFP16: true}
		sp := obs.Start("bench:profiles").With("benchmark", name)
		watch := core.NewStopwatch()
		e.profiles = core.CollectProfiles(e.prog, nil, func(op int) []approx.KnobID {
			return core.KnobsFor(e.prog, op, pol)
		}, tensor.NewRNG(s.cfg.Seed+11), sp)
		e.profTime = watch.Total()
		sp.End()
	}
	return e.profiles
}

// tuneOptions assembles core options from the session configuration.
func (s *Session) tuneOptions(qosMin float64, model predictor.Model, pol core.KnobPolicy) core.Options {
	return core.Options{
		QoSMin:     qosMin,
		Model:      model,
		NCalibrate: s.cfg.NCalibrate,
		MaxIters:   s.cfg.MaxIters,
		StallLimit: s.cfg.StallLimit,
		MaxConfigs: s.cfg.MaxConfigs,
		Policy:     pol,
		Seed:       s.cfg.Seed,
	}
}

// CalibBaseline returns the exact-execution QoS on the calibration set —
// the reference all ΔQoS thresholds are relative to (at small N it can
// differ from the full-set planted accuracy by a quantum).
func (s *Session) CalibBaseline(name string) float64 {
	e := s.Entry(name)
	return e.prog.Score(core.Calib, e.prog.BaselineOut(core.Calib))
}

// DevTune runs (and caches) a predictive development-time tuning run.
func (s *Session) DevTune(name string, deltaQoS float64, model predictor.Model, allowFP16 bool) *core.Result {
	e := s.Entry(name)
	key := fmt.Sprintf("pred|%v|%v|%v", deltaQoS, model, allowFP16)
	if r, ok := e.results[key]; ok {
		return r
	}
	o := s.tuneOptions(s.CalibBaseline(name)-deltaQoS, model, core.KnobPolicy{AllowFP16: allowFP16})
	o.Profiles = s.Profiles(name)
	res, err := core.PredictiveTune(e.prog, o)
	if err != nil {
		panic(fmt.Sprintf("bench: %s devtune: %v", name, err))
	}
	e.results[key] = res
	return res
}

// EmpTune runs (and caches) a conventional empirical tuning run.
func (s *Session) EmpTune(name string, deltaQoS float64, allowFP16 bool) *core.Result {
	e := s.Entry(name)
	key := fmt.Sprintf("emp|%v|%v", deltaQoS, allowFP16)
	if r, ok := e.results[key]; ok {
		return r
	}
	o := s.tuneOptions(s.CalibBaseline(name)-deltaQoS, predictor.Pi2, core.KnobPolicy{AllowFP16: allowFP16})
	o.MaxIters = s.cfg.EmpIters
	o.StallLimit = s.cfg.EmpIters
	res, err := core.EmpiricalTune(e.prog, o)
	if err != nil {
		panic(fmt.Sprintf("bench: %s emptune: %v", name, err))
	}
	e.results[key] = res
	return res
}

// Report is one regenerated table or figure.
type Report struct {
	Name     string
	Title    string
	Header   []string
	Rows     [][]string
	Notes    []string
	Measures map[string]float64 // headline numbers for EXPERIMENTS.md
}

// AddMeasure records a headline number.
func (r *Report) AddMeasure(key string, v float64) {
	if r.Measures == nil {
		r.Measures = make(map[string]float64)
	}
	r.Measures[key] = v
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.Name, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
			} else {
				b.WriteString(cell + "  ")
			}
		}
		b.WriteString("\n")
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	if len(r.Measures) > 0 {
		keys := make([]string, 0, len(r.Measures))
		for k := range r.Measures {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s = %.3f\n", k, r.Measures[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Geomean returns the geometric mean of positive values.
func Geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
