package core

import (
	"fmt"

	"repro/internal/obs"
)

// Drift-detection parameters for the runtime health monitor. The
// detectors smooth per-invocation observations with an exponentially
// weighted moving average and compare against what the shipped tradeoff
// curve predicted for the active configuration; detection is per
// configuration, so a legitimate policy switch never looks like drift.
const (
	// driftAlpha is the EWMA smoothing factor for both detectors.
	driftAlpha = 0.3
	// driftWarmup is the number of samples a configuration must
	// accumulate before its detectors may alarm, so a single cold-cache
	// invocation cannot trip a recalibration.
	driftWarmup = 5
	// driftBand bounds the acceptable observed/predicted execution-time
	// ratio: a configuration is speedup-drifting when its smoothed ratio
	// leaves [1/driftBand, driftBand].
	driftBand = 1.5
	// qosDriftTolerance is the acceptable gap, in QoS points, between
	// the calibrated QoS the curve promises for a configuration and the
	// smoothed QoS observed in production.
	qosDriftTolerance = 1.0
)

// Health telemetry: per-invocation latency quantiles and the count of
// drift alarms raised by the predicted-vs-observed detectors.
var (
	qRtInvocation  = obs.NewQHistogram("runtime.invocation_seconds")
	mRtDriftAlarms = obs.NewCounter("runtime.drift_alarms")
)

// configHealth is the per-configuration monitor state, indexed by the
// configuration's position on the tradeoff curve.
type configHealth struct {
	hist        *obs.QHistogram // latency distribution for this config only
	invocations int64

	timeSamples  int
	timeEwma     float64 // EWMA of observed/predicted execution-time ratio
	timeDrifting bool

	qosSamples  int
	qosEwma     float64 // EWMA of observed QoS
	qosDrifting bool

	alarms int
}

// ConfigHealth is the exported health snapshot of one curve
// configuration.
type ConfigHealth struct {
	// Index is the configuration's position on the tradeoff curve.
	Index int `json:"index"`
	// Config renders the configuration in Table-3 style (knob-family
	// counts), the same form the reports use.
	Config string `json:"config"`
	// Perf and PredictedQoS are the curve's promises; PredictedTime is
	// targetTime/Perf, the per-invocation time the curve implies.
	Perf          float64 `json:"perf"`
	PredictedQoS  float64 `json:"predicted_qos"`
	PredictedTime float64 `json:"predicted_time"`

	Invocations int64        `json:"invocations"`
	Latency     obs.QSummary `json:"latency"`

	// TimeRatio is the smoothed observed/predicted execution-time ratio
	// (1.0 means the curve's speedup still holds).
	TimeRatio    float64 `json:"time_ratio"`
	TimeDrifting bool    `json:"time_drifting"`
	ObservedQoS  float64 `json:"observed_qos,omitempty"`
	QoSDrifting  bool    `json:"qos_drifting"`
	Alarms       int     `json:"alarms"`
}

// Drifting reports whether either detector currently flags this
// configuration.
func (c ConfigHealth) Drifting() bool { return c.TimeDrifting || c.QoSDrifting }

// RuntimeHealth is a point-in-time health snapshot of a RuntimeTuner.
type RuntimeHealth struct {
	Program    string  `json:"program"`
	Policy     string  `json:"policy"`
	TargetTime float64 `json:"target_time"`

	Invocations int `json:"invocations"`
	Switches    int `json:"switches"`
	// DriftAlarms counts detector transitions into the drifting state
	// over the tuner's lifetime (it never decreases).
	DriftAlarms int `json:"drift_alarms"`
	// RecalibrationNeeded latches true once any configuration has
	// alarmed: the shipped curve no longer matches this machine and the
	// install-time calibration should be re-run.
	RecalibrationNeeded bool `json:"recalibration_needed"`

	// Latency aggregates every invocation regardless of configuration.
	Latency obs.QSummary `json:"latency"`
	// Configs lists only configurations that have run at least once,
	// in curve order.
	Configs []ConfigHealth `json:"configs"`
}

// Drifting returns the subset of configurations currently flagged by a
// detector, in curve order.
func (h RuntimeHealth) Drifting() []ConfigHealth {
	var out []ConfigHealth
	for _, c := range h.Configs {
		if c.Drifting() {
			out = append(out, c)
		}
	}
	return out
}

// String renders a one-line-per-config health summary for CLI output.
func (h RuntimeHealth) String() string {
	s := fmt.Sprintf("runtime health: %d invocations, %d switches, %d drift alarms, recalibration_needed=%v\n",
		h.Invocations, h.Switches, h.DriftAlarms, h.RecalibrationNeeded)
	s += fmt.Sprintf("  latency: n=%d p50=%.4gs p99=%.4gs max=%.4gs\n", h.Latency.Count, h.Latency.P50, h.Latency.P99, h.Latency.Max)
	for _, c := range h.Configs {
		flag := ""
		if c.Drifting() {
			flag = "  << DRIFTING"
		}
		s += fmt.Sprintf("  config[%d] %s: perf=%.2f n=%d p50=%.4gs ratio=%.2f alarms=%d%s\n",
			c.Index, c.Config, c.Perf, c.Invocations, c.Latency.P50, c.TimeRatio, c.Alarms, flag)
	}
	return s
}

// healthFor returns (creating on first use) the monitor state for the
// curve configuration at index idx. Caller holds rt.mu.
func (rt *RuntimeTuner) healthFor(idx int) *configHealth {
	if rt.health[idx] == nil {
		rt.health[idx] = &configHealth{hist: obs.NewQHist()}
	}
	return rt.health[idx]
}

// observeHealth feeds one invocation's execution time into the health
// monitor, attributed to the configuration at curve index idx (the one
// active when the invocation ran). Caller holds rt.mu.
func (rt *RuntimeTuner) observeHealth(idx int, execTime float64) {
	qRtInvocation.Observe(execTime)
	ch := rt.healthFor(idx)
	ch.hist.Observe(execTime)
	ch.invocations++

	pt := rt.curve.Points[idx]
	predicted := rt.targetTime / pt.Perf
	if !(predicted > 0) {
		return
	}
	ratio := execTime / predicted
	if ch.timeSamples == 0 {
		ch.timeEwma = ratio
	} else {
		ch.timeEwma = float64(driftAlpha*ratio) + float64((1-driftAlpha)*ch.timeEwma)
	}
	ch.timeSamples++
	drifting := ch.timeSamples >= driftWarmup &&
		(ch.timeEwma > driftBand || ch.timeEwma < 1/driftBand)
	if drifting && !ch.timeDrifting {
		rt.raiseAlarm(ch)
	}
	ch.timeDrifting = drifting
}

// RecordQoS feeds one invocation's measured QoS (e.g. an end-to-end
// accuracy check on a golden input slice) to the health monitor,
// attributed to the currently active configuration. When the smoothed
// observed QoS falls more than qosDriftTolerance points below the
// calibrated QoS the curve promises, the configuration is flagged as
// QoS-drifting and a drift alarm is raised.
func (rt *RuntimeTuner) RecordQoS(qos float64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ch := rt.healthFor(rt.idx)
	if ch.qosSamples == 0 {
		ch.qosEwma = qos
	} else {
		ch.qosEwma = float64(driftAlpha*qos) + float64((1-driftAlpha)*ch.qosEwma)
	}
	ch.qosSamples++
	predicted := rt.curve.Points[rt.idx].QoS
	drifting := ch.qosSamples >= driftWarmup && predicted-ch.qosEwma > qosDriftTolerance
	if drifting && !ch.qosDrifting {
		rt.raiseAlarm(ch)
	}
	ch.qosDrifting = drifting
}

// raiseAlarm records one detector transition into the drifting state.
// Caller holds rt.mu.
func (rt *RuntimeTuner) raiseAlarm(ch *configHealth) {
	ch.alarms++
	rt.driftAlarms++
	rt.recalibrate = true
	mRtDriftAlarms.Inc()
	obs.Flight().Event("runtime.drift_alarm",
		fmt.Sprintf("config=%d alarms=%d invocation=%d", rt.idx, rt.driftAlarms, rt.invocations), obs.TraceID{})
}

// RecalibrationNeeded reports whether any configuration has raised a
// drift alarm since the tuner started: the shipped tradeoff curve no
// longer describes this machine and install-time calibration should be
// re-run. The signal latches; it is cleared only by a new tuner built
// from a fresh curve.
func (rt *RuntimeTuner) RecalibrationNeeded() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.recalibrate
}

// Health returns a point-in-time health snapshot: lifetime counters,
// the overall latency distribution, and per-configuration latency and
// drift-detector state for every configuration that has run.
func (rt *RuntimeTuner) Health() RuntimeHealth {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	h := RuntimeHealth{
		Program:             rt.curve.Program,
		Policy:              rt.policy.String(),
		TargetTime:          rt.targetTime,
		Invocations:         rt.invocations,
		Switches:            rt.switches,
		DriftAlarms:         rt.driftAlarms,
		RecalibrationNeeded: rt.recalibrate,
	}
	overall := obs.NewQHist().Snapshot()
	for idx, ch := range rt.health {
		if ch == nil {
			continue
		}
		pt := rt.curve.Points[idx]
		snap := ch.hist.Snapshot()
		overall.Merge(snap)
		cfg := ConfigHealth{
			Index:         idx,
			Config:        pt.Config.FormatGroupCounts(),
			Perf:          pt.Perf,
			PredictedQoS:  pt.QoS,
			PredictedTime: rt.targetTime / pt.Perf,
			Invocations:   ch.invocations,
			Latency:       snap.Summary(),
			TimeRatio:     ch.timeEwma,
			TimeDrifting:  ch.timeDrifting,
			QoSDrifting:   ch.qosDrifting,
			Alarms:        ch.alarms,
		}
		if ch.qosSamples > 0 {
			cfg.ObservedQoS = ch.qosEwma
		}
		h.Configs = append(h.Configs, cfg)
	}
	h.Latency = overall.Summary()
	return h
}
