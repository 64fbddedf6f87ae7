package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Scratch-buffer pool. The functional-emulation hot paths (im2col column
// matrices, FP16 quantized operand copies, packed GEMM panels) need large
// short-lived float32 buffers once per (image, group) — allocating them
// fresh dominates allocation volume and GC pressure across the thousands
// of program executions a tuning run performs. The pool hands out
// power-of-two-capacity buffers from per-size-class sync.Pool arenas.
//
// Contract: Scratch returns a buffer of exactly the requested length whose
// contents are UNSPECIFIED — callers must fully overwrite it before
// reading. Release(&buf) returns the buffer to its class and sets buf to
// nil, so a second Release of the same variable does nothing and a read
// through it panics; the caller must not retain another reference. Both
// are goroutine-safe. Outstanding counts the buffers handed out and not
// yet released; the test binaries that run kernels require it to be zero
// when they exit (internal/leakcheck).

// Pool telemetry: hits (buffer served from an arena), misses (fresh
// allocation), and the bytes of allocation the hits avoided.
var (
	mPoolHits       = obs.NewCounter("tensor.pool_hits")
	mPoolMisses     = obs.NewCounter("tensor.pool_misses")
	mPoolBytesSaved = obs.NewCounter("tensor.pool_bytes_saved")
)

const (
	// minPoolClass: buffers below 2^6 elements are cheaper to allocate
	// than to round-trip through a pool.
	minPoolClass = 6
	// maxPoolClass: 2^24 floats (64 MiB) caps what an arena may retain.
	maxPoolClass = 24
)

var scratchArenas [maxPoolClass + 1]sync.Pool

// outstanding is Scratch's non-nil buffers less the ones Released.
var outstanding atomic.Int64

// Outstanding returns how many Scratch buffers have not been Released.
func Outstanding() int64 { return outstanding.Load() }

// headerPool recycles the *[]float32 headers the arenas store, so a
// Scratch/Release round-trip is allocation-free in steady state (boxing a
// fresh header on every Release would put one heap object per pooled
// buffer back on the GC).
var headerPool = sync.Pool{New: func() any { return new([]float32) }}

// poolClass returns the arena index for a requested length: the smallest c
// with 1<<c >= n, clamped into [minPoolClass, maxPoolClass]; -1 when the
// request is outside pooling range and should use a plain allocation.
func poolClass(n int) int {
	if n <= 0 {
		return -1
	}
	c := bits.Len(uint(n - 1))
	if c < minPoolClass {
		c = minPoolClass
	}
	if c > maxPoolClass {
		return -1
	}
	return c
}

// Scratch returns a length-n float32 buffer with unspecified contents,
// drawn from the pool when possible; nil when n ≤ 0.
func Scratch(n int) []float32 {
	if n <= 0 {
		return nil
	}
	outstanding.Add(1)
	c := poolClass(n)
	if c < 0 {
		mPoolMisses.Inc()
		return make([]float32, n)
	}
	if v := scratchArenas[c].Get(); v != nil {
		h := v.(*[]float32)
		buf := *h
		*h = nil // don't pin the buffer from the header pool
		headerPool.Put(h)
		mPoolHits.Inc()
		mPoolBytesSaved.Add(int64(4 * n))
		return buf[:n]
	}
	mPoolMisses.Inc()
	return make([]float32, n, 1<<c)
}

// Release returns the buffer *p obtained from Scratch to its arena and sets
// *p to nil; a nil *p is left alone. Buffers outside the pooled capacity
// range are dropped for the garbage collector.
func Release(p *[]float32) {
	buf := *p
	if buf == nil {
		return
	}
	*p = nil
	outstanding.Add(-1)
	c := cap(buf)
	if c < 1<<minPoolClass || c > 1<<maxPoolClass || c&(c-1) != 0 {
		return
	}
	h := headerPool.Get().(*[]float32)
	*h = buf[:c]
	scratchArenas[bits.Len(uint(c-1))].Put(h)
}
