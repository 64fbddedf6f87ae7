package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. Metric creation is get-or-create, so
// package-level metric variables and late lookups agree on the same
// instance. All operations are goroutine-safe.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{metrics: make(map[string]any)} }

// Default is the process-wide registry the instrumented packages publish
// into and the HTTP endpoint serves.
var Default = NewRegistry()

func lookup[T any](r *Registry, name string, make func() T) T {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		m, ok = r.metrics[name]
		if !ok {
			m = make()
			r.metrics[name] = m
		}
		r.mu.Unlock()
	}
	t, ok := m.(T)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different type (%T)", name, m))
	}
	return t
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, name, func() *Counter { return &Counter{} })
}

// NewCounter returns the named counter in the Default registry.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// Gauge is an atomically updated float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds delta (negative deltas decrement — e.g. in-flight
// request tracking).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, name, func() *Gauge { return &Gauge{} })
}

// NewGauge returns the named gauge in the Default registry.
func NewGauge(name string) *Gauge { return Default.Gauge(name) }

// CounterVec is a family of counters keyed by a label value (e.g. kernel
// invocations by knob kind). Label lookup takes a read lock; the counters
// themselves are lock-free, so hot paths should cache the *Counter.
type CounterVec struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// With returns (creating if needed) the counter for a label value.
func (v *CounterVec) With(label string) *Counter {
	v.mu.RLock()
	c, ok := v.m[label]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.m[label]; ok {
		return c
	}
	c = &Counter{}
	v.m[label] = c
	return c
}

func (v *CounterVec) snapshot() map[string]int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]int64, len(v.m))
	for k, c := range v.m {
		out[k] = c.Value()
	}
	return out
}

// CounterVec returns (creating if needed) the named counter family.
func (r *Registry) CounterVec(name string) *CounterVec {
	return lookup(r, name, func() *CounterVec { return &CounterVec{m: make(map[string]*Counter)} })
}

// NewCounterVec returns the named counter family in the Default registry.
func NewCounterVec(name string) *CounterVec { return Default.CounterVec(name) }

// GaugeVec is a family of gauges keyed by a label value (e.g. in-flight
// requests by endpoint). Label lookup takes a read lock; the gauges
// themselves are lock-free, so hot paths should cache the *Gauge.
type GaugeVec struct {
	mu sync.RWMutex
	m  map[string]*Gauge
}

// With returns (creating if needed) the gauge for a label value.
func (v *GaugeVec) With(label string) *Gauge {
	v.mu.RLock()
	g, ok := v.m[label]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok = v.m[label]; ok {
		return g
	}
	g = &Gauge{}
	v.m[label] = g
	return g
}

func (v *GaugeVec) snapshot() map[string]float64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]float64, len(v.m))
	for k, g := range v.m {
		out[k] = g.Value()
	}
	return out
}

// GaugeVec returns (creating if needed) the named gauge family.
func (r *Registry) GaugeVec(name string) *GaugeVec {
	return lookup(r, name, func() *GaugeVec { return &GaugeVec{m: make(map[string]*Gauge)} })
}

// NewGaugeVec returns the named gauge family in the Default registry.
func NewGaugeVec(name string) *GaugeVec { return Default.GaugeVec(name) }

// Snapshot returns the current value of every metric keyed by name:
// int64 for counters, float64 for gauges, map[string]... for the vec
// families and QSummary for quantile histograms — the expvar-style JSON
// the HTTP endpoint serves.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		switch m := m.(type) {
		case *Counter:
			out[name] = m.Value()
		case *Gauge:
			out[name] = m.Value()
		case *CounterVec:
			out[name] = m.snapshot()
		case *GaugeVec:
			out[name] = m.snapshot()
		case *QHistogram:
			out[name] = m.Snapshot().Summary()
		case *QHistVec:
			out[name] = m.snapshot()
		}
	}
	return out
}
