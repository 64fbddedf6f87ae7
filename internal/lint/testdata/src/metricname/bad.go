// Package metricname is a lint fixture: metric-name discipline.
package metricname

import (
	"fmt"

	"repro/internal/obs"
)

// Good uses dotted snake_case literals — clean.
func Good() {
	obs.NewCounter("tuner.configs_explored").Inc()
	obs.NewQHistogram("tuner.iteration_seconds").Observe(0.1)
}

// Dynamic builds the name at run time — flagged.
func Dynamic(shard int) {
	obs.NewCounter(fmt.Sprintf("tuner.shard_%d.hits", shard)).Inc() // want metricname
}

// FromVariable defeats grep — flagged.
func FromVariable(name string) {
	obs.NewQHistVec(name) // want metricname
}

// BadCase is not snake_case — flagged.
func BadCase() {
	obs.NewGauge("Tuner.QueueDepth") // want metricname
}

// NoDot lacks a subsystem prefix — flagged.
func NoDot() {
	obs.NewCounterVec("requests") // want metricname
}

// RegistryMethod holds custom registries to the same rule — flagged.
func RegistryMethod(r *obs.Registry) {
	r.QHistogram("latency-seconds") // want metricname
}

// RegistryClean names a registry metric properly — clean.
func RegistryClean(r *obs.Registry) {
	r.Gauge("tuner.queue_depth").Set(1)
}

// Suppressed carries a justified ignore directive — clean.
func Suppressed(shard int) {
	//lint:ignore metricname fixture: documented per-shard debug metric
	obs.NewCounter(fmt.Sprintf("debug.shard_%d", shard)).Inc()
}
