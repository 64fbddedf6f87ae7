package tensor

import (
	"runtime"

	"repro/internal/obs"
)

// Derived operands. What the kernels derive from a marked tensor's contents
// and reuse across executions (internal/tensorops/panelcache.go says which
// and why) is kept on the tensor itself: an operand lives exactly as long as
// its source, the garbage collector is the eviction policy, and a tensor
// that was never marked holds nothing.
//
// Invariants (derived_test.go here, panelcache_test.go and
// derived_lifetime_test.go in tensorops): a hit takes no lock and allocates
// nothing; builders of one tensor run one at a time, so a key is built once;
// InvalidateCache swaps the set out, and a build it overlapped is returned
// to its caller but never installed; stored values are immutable and never
// come from the scratch pool, so a reader may keep using one after it was
// dropped.

// Telemetry keeps the names it had when the operands lived in
// internal/tensorops. The gauge is the bytes held by live sets: it rises on
// an install and falls on InvalidateCache or when the set is collected.
var (
	mDerivedHits   = obs.NewCounter("tensorops.pack_cache.hits")
	mDerivedMisses = obs.NewCounter("tensorops.pack_cache.misses")
	mDerivedBytes  = obs.NewGauge("tensorops.pack_cache.bytes")
)

// maxDerivedBytes: a larger operand is built and returned but not kept.
const maxDerivedBytes = 128 << 20

// DerivedKey names one operand derived from a tensor's contents or shape.
// Kind and the parameters mean what the deriving package says they mean.
type DerivedKey struct {
	Kind           uint8
	P0, P1, P2, P3 int
}

type derivedEntry struct {
	key DerivedKey
	val any
}

// derivedSet is one immutable version of a tensor's operands; Derive
// replaces it with a longer copy, InvalidateCache with an empty one. Only
// the version a tensor points at carries the finalizer that returns its
// bytes to the gauge — a replaced version is unregistered, so it is freed
// without the extra collection cycle a finalizer costs.
type derivedSet struct {
	entries []derivedEntry
	bytes   int64
}

func (s *derivedSet) find(key DerivedKey) any {
	for i := range s.entries {
		if s.entries[i].key == key {
			return s.entries[i].val
		}
	}
	return nil
}

func (s *derivedSet) release() { mDerivedBytes.Add(-float64(s.bytes)) }

// MarkCacheable lets t keep operands derived from its contents (idempotent)
// and returns t. Constant weights and long-lived calibration inputs should
// be marked; transient per-execution tensors should not, so they hold
// nothing. Clones and reshaped views start unmarked. Safe for concurrent
// use.
func (t *Tensor) MarkCacheable() *Tensor {
	t.derived.CompareAndSwap(nil, new(derivedSet))
	return t
}

// InvalidateCache drops every operand derived from t, and what an operand
// that is itself a marked tensor (a sampled filter) holds in turn. Callers
// that mutate a marked tensor's Data() must call it afterwards
// (graph.StandardizeWeights does). No-op for unmarked tensors.
func (t *Tensor) InvalidateCache() {
	for old := t.derived.Load(); old != nil; old = t.derived.Load() {
		// An empty set is swapped too: the new pointer is what tells an
		// overlapping build that it read the old contents.
		if !t.derived.CompareAndSwap(old, new(derivedSet)) {
			continue
		}
		runtime.SetFinalizer(old, nil)
		old.release()
		for _, e := range old.entries {
			if sub, ok := e.val.(*Tensor); ok {
				sub.InvalidateCache()
			}
		}
		return
	}
}

// DerivedBytes reports the bytes of derived operands t holds; ok is false
// when t was never marked.
func (t *Tensor) DerivedBytes() (bytes int64, ok bool) {
	s := t.derived.Load()
	if s == nil {
		return 0, false
	}
	return s.bytes, true
}

// Derive returns the operand t keeps under key, calling build (value and its
// size in bytes) on first use. ok is false when t is not marked: build is
// not called and the caller derives into scratch as it would without a
// cache. The value must be non-nil and is shared: treat it as read-only.
func (t *Tensor) Derive(key DerivedKey, build func() (any, int64)) (v any, ok bool) {
	s := t.derived.Load()
	if s == nil {
		return nil, false
	}
	if v := s.find(key); v != nil {
		mDerivedHits.Inc()
		return v, true
	}
	return t.buildDerived(key, build), true
}

func (t *Tensor) buildDerived(key DerivedKey, build func() (any, int64)) any {
	t.deriveMu.Lock()
	defer t.deriveMu.Unlock()
	base := t.derived.Load()
	if v := base.find(key); v != nil { // built while this caller waited
		mDerivedHits.Inc()
		return v
	}
	mDerivedMisses.Inc()
	v, bytes := build()
	if bytes > maxDerivedBytes {
		return v
	}
	n := len(base.entries)
	next := &derivedSet{
		entries: append(base.entries[:n:n], derivedEntry{key, v}),
		bytes:   base.bytes + bytes,
	}
	// Builders hold deriveMu, so only InvalidateCache can have moved the
	// pointer off base: the source changed under this build, and v is not
	// kept.
	runtime.SetFinalizer(next, (*derivedSet).release)
	if !t.derived.CompareAndSwap(base, next) {
		runtime.SetFinalizer(next, nil)
		return v
	}
	runtime.SetFinalizer(base, nil)
	mDerivedBytes.Add(float64(bytes))
	return v
}
