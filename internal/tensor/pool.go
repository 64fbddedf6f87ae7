package tensor

import (
	"math"
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
//
// Kernel outputs come from the same classes (NewPooled, ClonePooled), and
// graph execution hands each intermediate one back with Recycle after its
// last reader. An output nobody recycles is simply collected, so neither
// counts toward Outstanding.

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
	buf := draw(n)
	return buf
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
	put(buf)
}

// NewPooled is New with the buffer drawn from the pool's size classes,
// whose capacity is a power of two and whose contents are UNSPECIFIED, as
// Scratch's are: the caller must store every element (or clear what it
// leaves unwritten) before the tensor is read. Kernels allocate their
// outputs this way, so a graph execution can hand an activation back
// (Recycle) once its last reader has run and serve a later output from it.
// Long-lived tensors (weights, datasets) use New and keep exact sizes.
func NewPooled(dims ...int) *Tensor {
	return newPooled(NewShape(dims...))
}

// NewPooledLike is NewPooled with t's shape.
func NewPooledLike(t *Tensor) *Tensor { return newPooled(t.shape) }

func newPooled(s Shape) *Tensor {
	buf := draw(s.Elems())
	return &Tensor{shape: s, data: buf}
}

// ClonePooled is Clone into a buffer drawn like NewPooled's.
func (t *Tensor) ClonePooled() *Tensor {
	buf := draw(len(t.data))
	copy(buf, t.data)
	return &Tensor{shape: t.shape, data: buf}
}

// Recycle returns t's buffer to its size class and leaves t with no data.
// The caller must hold the only live reference to the buffer: no view of t
// (Reshape, FromSlice over its data) may be read afterwards. It does not
// allocate and does not touch Outstanding, which counts Scratch buffers
// only.
func Recycle(t *Tensor) {
	buf := t.data
	t.data = nil
	put(buf)
}

// poisoned makes draw fill every buffer it hands out with PoisonBits
// (PoisonDraws).
var poisoned atomic.Bool

// PoisonBits is the quiet NaN PoisonDraws fills drawn buffers with.
const PoisonBits = 0x7fc0dead

// PoisonDraws makes every buffer Scratch, NewPooled, NewPooledLike and
// ClonePooled hand out arrive filled with PoisonBits while on is set — a
// test hook: a kernel that reads an element of its output or scratch before
// storing it then computes NaN, which its caller's bits show. It returns
// the previous setting.
func PoisonDraws(on bool) bool { return poisoned.Swap(on) }

// draw returns a length-n buffer with unspecified contents — from its size
// class's arena, else freshly allocated with the class's capacity, or with
// exactly n outside the pooled range.
func draw(n int) []float32 {
	buf := drawClass(n)
	if poisoned.Load() {
		for i := range buf {
			buf[i] = math.Float32frombits(PoisonBits)
		}
	}
	return buf
}

func drawClass(n int) []float32 {
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

// put files buf under its capacity's class; a buffer whose capacity is not
// a pooled power of two is left to the garbage collector.
func put(buf []float32) {
	c := cap(buf)
	if c < 1<<minPoolClass || c > 1<<maxPoolClass || c&(c-1) != 0 {
		return
	}
	h := headerPool.Get().(*[]float32)
	*h = buf[:c]
	scratchArenas[bits.Len(uint(c-1))].Put(h)
}
