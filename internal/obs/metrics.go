package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
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

// getOrCreate is the double-checked lookup the registry and every label
// family share: a read lock on the hit path, the write lock to insert.
func getOrCreate[V any](mu *sync.RWMutex, m map[string]V, key string, mk func() V) V {
	mu.RLock()
	v, ok := m[key]
	mu.RUnlock()
	if ok {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	if v, ok = m[key]; !ok {
		v = mk()
		m[key] = v
	}
	return v
}

// validMetricName reports whether name is dotted snake_case
// ("subsystem.metric_name"): two or more dot-separated parts, each a
// lowercase letter followed by lowercase letters, digits or underscores.
// The exposition, the summary table and grep all key on the name, and
// promName maps exactly this shape onto Prometheus' charset.
func validMetricName(name string) bool {
	parts := strings.Split(name, ".")
	for _, p := range parts {
		if p == "" || p[0] < 'a' || p[0] > 'z' {
			return false
		}
		for _, c := range p {
			if !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '_') {
				return false
			}
		}
	}
	return len(parts) >= 2
}

// lookup returns the named metric, creating it with mk on first use. It
// panics on a malformed name (checked only on creation, so the hit path
// pays nothing) and on a name already registered with another type.
func lookup[T any](r *Registry, name string, mk func() T) T {
	m := getOrCreate(&r.mu, r.metrics, name, func() any {
		if !validMetricName(name) {
			panic(fmt.Sprintf("obs: metric name %q is not dotted snake_case (want \"subsystem.metric_name\")", name))
		}
		return mk()
	})
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
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// addFloat adds delta to the float64 whose bits are stored in b.
func addFloat(b *atomic.Uint64, delta float64) {
	for {
		old := b.Load()
		if b.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
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

// family is a set of metrics of one kind keyed by a label value. Label
// lookup takes a read lock; the metrics themselves are lock-free, so hot
// paths should cache what With returns.
type family[M metric] struct {
	mu sync.RWMutex
	m  map[string]M
	mk func() M
}

func newFamily[M metric](mk func() M) *family[M] {
	return &family[M]{m: make(map[string]M), mk: mk}
}

// With returns (creating if needed) the metric for a label value.
func (v *family[M]) With(label string) M { return getOrCreate(&v.mu, v.m, label, v.mk) }

// readAll reads every member, ordered by label value.
func (v *family[M]) readAll() []reading {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]reading, 0, len(v.m))
	for _, k := range sortedKeys(v.m) {
		rd := v.m[k].read()
		rd.key = k
		out = append(out, rd)
	}
	return out
}

// CounterVec is a family of counters keyed by a label value (e.g. kernel
// invocations by knob kind).
type CounterVec = family[*Counter]

// CounterVec returns (creating if needed) the named counter family.
func (r *Registry) CounterVec(name string) *CounterVec {
	return lookup(r, name, func() *CounterVec { return newFamily(func() *Counter { return &Counter{} }) })
}

// NewCounterVec returns the named counter family in the Default registry.
func NewCounterVec(name string) *CounterVec { return Default.CounterVec(name) }

// GaugeVec is a family of gauges keyed by a label value (e.g. in-flight
// requests by endpoint).
type GaugeVec = family[*Gauge]

// GaugeVec returns (creating if needed) the named gauge family.
func (r *Registry) GaugeVec(name string) *GaugeVec {
	return lookup(r, name, func() *GaugeVec { return newFamily(func() *Gauge { return &Gauge{} }) })
}

// NewGaugeVec returns the named gauge family in the Default registry.
func NewGaugeVec(name string) *GaugeVec { return Default.GaugeVec(name) }

// metricKind says which field of a reading is meaningful.
type metricKind uint8

const (
	kindCounter metricKind = iota // reading.n
	kindGauge                     // reading.f
	kindQHist                     // reading.h
)

// reading is one metric's value at an instant; key is the label value of
// a family member and "" otherwise.
type reading struct {
	kind metricKind
	key  string
	n    int64
	f    float64
	h    *QSnapshot
}

// metric is what a Counter, a Gauge and a QHistogram have in common.
type metric interface{ read() reading }

func (c *Counter) read() reading    { return reading{kind: kindCounter, n: c.Value()} }
func (g *Gauge) read() reading      { return reading{kind: kindGauge, f: g.Value()} }
func (h *QHistogram) read() reading { return reading{kind: kindQHist, h: h.Snapshot()} }

// metricReadings is one registered name with its readings: exactly one
// for a plain metric, one per label (possibly none) for a family.
type metricReadings struct {
	name   string
	kind   metricKind
	family bool
	series []reading
}

// readAll reads every metric, ordered by name: the one walk behind the
// OpenMetrics exposition and the telemetry table.
func (r *Registry) readAll() []metricReadings {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]metricReadings, 0, len(r.metrics))
	for _, name := range sortedKeys(r.metrics) {
		mr := metricReadings{name: name}
		switch m := r.metrics[name].(type) {
		case metric:
			mr.series = []reading{m.read()}
			mr.kind = mr.series[0].kind
		case *CounterVec:
			mr.kind, mr.family, mr.series = kindCounter, true, m.readAll()
		case *GaugeVec:
			mr.kind, mr.family, mr.series = kindGauge, true, m.readAll()
		case *QHistVec:
			mr.kind, mr.family, mr.series = kindQHist, true, m.readAll()
		}
		out = append(out, mr)
	}
	return out
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
