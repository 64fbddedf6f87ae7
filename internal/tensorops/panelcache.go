package tensorops

import (
	"container/list"
	"sync"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Pack-once operand cache. The tuning phases re-execute the same tensor
// graph thousands of times across candidate configurations, so the
// per-invocation operand transforms — FP16 quantization of constant
// weights and calibration inputs, filter sampling, and packing a dense
// weight into the GEMM panel layout — are recomputed from identical bytes
// on every call. The PackCache memoizes those three kinds of derived
// operand keyed by (source tensor identity, generation, transform kind,
// precision, shape/knob parameters). Only tensors explicitly marked
// cacheable (constant weights, long-lived calibration inputs, cached
// baseline activations) participate; transient per-execution tensors have
// no identity and can never pollute the cache. A convolution's packed
// patch matrix is not among them: every (op, knob) suffix run asks for a
// geometry no earlier run packed, so convolve packs from the input each
// call (convpack.go).
//
// Memory is bounded: entries are evicted least-recently-used once the
// byte budget is exceeded, and a single entry larger than the whole
// budget is simply not cached. Invalidation is explicit per source tensor
// (graph.StandardizeWeights mutates weights in place and must call
// InvalidatePacked); the generation in the key additionally guarantees
// that a stale entry can never be returned even before the invalidation
// sweep runs.
//
// Concurrency: one mutex guards the index and LRU list. Values are
// immutable after insertion and allocated with plain make — never from
// the tensor scratch pool — so a reader holding a borrowed slice is safe
// against concurrent eviction (eviction only drops the cache's
// reference).

// Pack-cache telemetry. The gauge carries the live resident bytes across
// all cache instances (deltas compose), the counters are monotone.
var (
	mPackHits      = obs.NewCounter("tensorops.pack_cache.hits")
	mPackMisses    = obs.NewCounter("tensorops.pack_cache.misses")
	mPackBytes     = obs.NewGauge("tensorops.pack_cache.bytes")
	mPackEvictions = obs.NewCounter("tensorops.pack_cache.evictions")
)

// DefaultPackCacheBytes is the byte budget of the process-wide cache:
// large enough for every weight-derived operand and FP16 activation copy
// of the model-zoo networks, and the memory bound for full-width models.
const DefaultPackCacheBytes = 128 << 20

// packKind discriminates the transform a cache entry holds.
type packKind uint8

const (
	// packQuant: the source tensor's data quantized through FP16
	// ([]float32 of the same length).
	packQuant packKind = iota
	// packSampled: the K-compacted filter-sampled copy of a conv weight
	// (*tensor.Tensor, Co × kept), keyed by (stride, offset).
	packSampled
	// packPanels: a prepacked B operand (panels + tail) for the blocked
	// GEMM, keyed by (k, n) and precision.
	packPanels
)

// packKey identifies one derived operand. The meaning of g0 and g1 depends
// on kind; unused fields are zero.
type packKey struct {
	id, gen uint64
	kind    packKind
	prec    Precision
	g0, g1  int
}

type packEntry struct {
	key   packKey
	val   any
	bytes int64
	elem  *list.Element
}

// PackCache is a bounded, mutex-guarded LRU cache of derived operands.
// The zero value is not usable; construct with NewPackCache.
type PackCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[packKey]*packEntry
	lru      *list.List // front = most recently used; values are *packEntry

	// Local stats mirror the global obs counters so tests on private
	// cache instances can assert behavior without reading process-wide
	// metrics.
	hits, misses, evictions int64
}

// NewPackCache returns an empty cache with the given byte budget.
func NewPackCache(maxBytes int64) *PackCache {
	return &PackCache{
		maxBytes: maxBytes,
		entries:  make(map[packKey]*packEntry),
		lru:      list.New(),
	}
}

// defaultPackCache is the process-wide instance every kernel entry point
// uses.
var defaultPackCache = NewPackCache(DefaultPackCacheBytes)

// get returns the cached value for k, promoting the entry to
// most-recently-used. Every call counts a hit or a miss.
func (c *PackCache) get(k packKey) (any, bool) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if ok {
		c.lru.MoveToFront(e.elem)
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if ok {
		mPackHits.Inc()
		return e.val, true
	}
	mPackMisses.Inc()
	return nil, false
}

// add inserts v under k and returns the canonical value for the key: if a
// concurrent computation already inserted one, the existing value wins so
// byte accounting stays exact (the duplicate is garbage-collected).
// Values larger than the whole budget are returned uncached. Eviction
// runs until the budget holds.
func (c *PackCache) add(k packKey, v any, bytes int64) any {
	if bytes > c.maxBytes {
		return v
	}
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		return e.val
	}
	e := &packEntry{key: k, val: v, bytes: bytes}
	e.elem = c.lru.PushFront(e)
	c.entries[k] = e
	c.bytes += bytes
	delta := bytes
	evicted := 0
	for c.bytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		old := back.Value.(*packEntry)
		c.removeLocked(old)
		delta -= old.bytes
		evicted++
	}
	c.mu.Unlock()
	mPackBytes.Add(float64(delta))
	if evicted > 0 {
		mPackEvictions.Add(int64(evicted))
		c.mu.Lock()
		c.evictions += int64(evicted)
		c.mu.Unlock()
	}
	return v
}

// removeLocked unlinks e from the index and LRU list. Callers hold mu.
func (c *PackCache) removeLocked(e *packEntry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
}

// getOrCompute is the memoization entry point: a hit returns the cached
// value, a miss runs build outside the lock and inserts the result.
// Concurrent misses for the same key may build twice; the transforms are
// pure functions of immutable inputs, so either result is correct and
// insert-if-absent keeps one.
func (c *PackCache) getOrCompute(k packKey, build func() (any, int64)) any {
	if v, ok := c.get(k); ok {
		return v
	}
	v, bytes := build()
	return c.add(k, v, bytes)
}

// Invalidate removes every entry derived from source tensor id (any
// generation, any kind) and returns how many were dropped. It is how
// in-place weight mutation (graph.StandardizeWeights) frees the stale
// panels; correctness does not depend on it — the generation bump already
// makes stale keys unreachable.
func (c *PackCache) Invalidate(id uint64) int {
	c.mu.Lock()
	var freed int64
	dropped := 0
	for e := c.lru.Front(); e != nil; {
		next := e.Next()
		ent := e.Value.(*packEntry)
		if ent.key.id == id {
			c.removeLocked(ent)
			freed += ent.bytes
			dropped++
		}
		e = next
	}
	c.mu.Unlock()
	if freed != 0 {
		mPackBytes.Add(-float64(freed))
	}
	return dropped
}

// Bytes returns the resident payload bytes.
func (c *PackCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len returns the number of resident entries.
func (c *PackCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the cache-local hit/miss/eviction counts.
func (c *PackCache) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// InvalidatePacked drops every cached operand derived from t from the
// process-wide cache. Callers that mutate a cacheable tensor in place
// must first call t.InvalidateCache() (correctness), then this (memory).
func InvalidatePacked(t *tensor.Tensor) {
	if id, _, ok := t.CacheKey(); ok {
		defaultPackCache.Invalidate(id)
	}
}

// --- derived-operand constructors -------------------------------------

// cachedQuantized returns t's data quantized through FP16, memoized in c
// when t is cacheable. ok is false when t has no cache identity; the
// caller should then quantize into pooled scratch as before.
func (c *PackCache) cachedQuantized(t *tensor.Tensor) ([]float32, bool) {
	id, gen, ok := t.CacheKey()
	if !ok {
		return nil, false
	}
	k := packKey{id: id, gen: gen, kind: packQuant, prec: FP16}
	v := c.getOrCompute(k, func() (any, int64) {
		q := make([]float32, t.Elems())
		tensor.QuantizeFP16Slice(q, t.Data())
		return q, int64(4 * len(q))
	})
	return v.([]float32), true
}

func cachedQuantized(t *tensor.Tensor) ([]float32, bool) {
	return defaultPackCache.cachedQuantized(t)
}

// cachedSampledFilter returns the K-compacted filter-sampled copy of w
// (compactSampledFilter), memoized when w is cacheable. The cached tensor
// is itself marked cacheable so the FP16 quantization of a sampled filter
// memoizes too. Returns nil when w has no cache identity.
func (c *PackCache) cachedSampledFilter(w *tensor.Tensor, samp sampSpec) *tensor.Tensor {
	id, gen, ok := w.CacheKey()
	if !ok {
		return nil
	}
	k := packKey{id: id, gen: gen, kind: packSampled, g0: samp.stride, g1: samp.offset}
	v := c.getOrCompute(k, func() (any, int64) {
		sw := compactSampledFilter(w, samp).MarkCacheable()
		return sw, int64(4 * sw.Elems())
	})
	return v.(*tensor.Tensor)
}

// prepacked is a B operand readied for the blocked GEMM once: the full
// panels in packRange layout plus the tail columns (n mod gemmNR of
// them) stored contiguously column-major, so the tail kernel reads a
// forward stream instead of striding through B. For FP16 the stored
// values are quantized; the GEMM then runs them as-is.
type prepacked struct {
	panels []float32 // np*k*gemmNR, packed[(jp*k+l)*gemmNR+j]
	tail   []float32 // (n-np*gemmNR)*k, tail[(j-jTail)*k+l] = B[l][j]
	np     int
}

// buildPrepacked packs b (k×n row-major) into panels + contiguous tail.
// quantB quantizes every element through FP16 during the copy, exactly
// like the per-call pack pass it replaces.
func buildPrepacked(b []float32, k, n int, quantB bool) *prepacked {
	np := n / gemmNR
	p := &prepacked{np: np}
	if np > 0 {
		p.panels = make([]float32, np*k*gemmNR)
		packRange(0, np, b, p.panels, k, n, quantB)
	}
	jTail := np * gemmNR
	if n > jTail {
		p.tail = make([]float32, (n-jTail)*k)
		for j := jTail; j < n; j++ {
			col := p.tail[(j-jTail)*k : (j-jTail+1)*k]
			for l := 0; l < k; l++ {
				v := b[l*n+j]
				if quantB {
					v = tensor.QuantizeFP16(v)
				}
				col[l] = v
			}
		}
	}
	return p
}

func (p *prepacked) bytes() int64 { return int64(4 * (len(p.panels) + len(p.tail))) }

// cachedPrepackedB returns w's data (k×n) prepacked for the blocked
// GEMM under the given precision, memoized when w is cacheable. Returns
// nil when w has no identity or the shape has no full panel (np == 0) —
// the per-call engine handles those directly.
func (c *PackCache) cachedPrepackedB(w *tensor.Tensor, k, n int, prec Precision) *prepacked {
	if n < gemmNR {
		return nil
	}
	id, gen, ok := w.CacheKey()
	if !ok {
		return nil
	}
	key := packKey{id: id, gen: gen, kind: packPanels, prec: prec, g0: k, g1: n}
	v := c.getOrCompute(key, func() (any, int64) {
		p := buildPrepacked(w.Data(), k, n, prec == FP16)
		return p, p.bytes()
	})
	return v.(*prepacked)
}

// PrepackConvWeight eagerly builds the FP16 quantized copy of a conv
// weight (the operand the FP16 conv path borrows on every call). Returns
// the number of cache entries ensured (0 when w is not cacheable).
func PrepackConvWeight(w *tensor.Tensor) int {
	if _, ok := cachedQuantized(w); !ok {
		return 0
	}
	return 1
}

// PrepackMatMulWeight eagerly builds the packed B panels of a dense
// weight for both precisions. Returns the number of cache entries
// ensured.
func PrepackMatMulWeight(w *tensor.Tensor) int {
	if w.Rank() != 2 {
		return 0
	}
	k, n := w.Dim(0), w.Dim(1)
	count := 0
	if defaultPackCache.cachedPrepackedB(w, k, n, FP32) != nil {
		count++
	}
	if defaultPackCache.cachedPrepackedB(w, k, n, FP16) != nil {
		count++
	}
	return count
}
