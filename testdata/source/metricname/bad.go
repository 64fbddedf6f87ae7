// Package metricname is a source-rule fixture: metric-name discipline.
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

// RegistryMethod passes a malformed name to a registry held in a
// variable. Telling r from any other receiver takes types, so the source
// rule leaves it to the registry, which panics when it creates the entry
// (obs.TestRegistryRefusesMalformedNames).
func RegistryMethod(r *obs.Registry) {
	r.QHistogram("latency-seconds")
}

// DefaultMethod reaches the process-wide registry by name — flagged.
func DefaultMethod() {
	obs.Default.Counter("Requests") // want metricname
}

// RegistryClean names a registry metric properly — clean.
func RegistryClean(r *obs.Registry) {
	r.Gauge("tuner.queue_depth").Set(1)
}
