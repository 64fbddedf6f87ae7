package tensor

import (
	"runtime"
	"testing"
	"time"
)

// settledDerivedBytes collects garbage until the sets earlier tests left
// behind have been finalized and the gauge stops moving (a set held by
// another set takes one cycle more than its holder).
func settledDerivedBytes() float64 {
	prev := mDerivedBytes.Value()
	for i, stable := 0, 0; stable < 3 && i < 50; i++ {
		runtime.GC()
		time.Sleep(2 * time.Millisecond) // the finalizer goroutine
		v := mDerivedBytes.Value()
		if stable++; v != prev {
			stable = 0
		}
		prev = v
	}
	return prev
}

func quantCopy(t *Tensor) func() (any, int64) {
	return func() (any, int64) {
		q := make([]float32, t.Elems())
		QuantizeFP16Slice(q, t.Data())
		return q, int64(4 * len(q))
	}
}

// TestDeriveStaleBuildNotInstalled: a build that InvalidateCache overlapped
// read the old contents, so the next lookup must not be served its result.
// The callback invalidating its own source is the deterministic stand-in for
// a concurrent weight rewrite.
func TestDeriveStaleBuildNotInstalled(t *testing.T) {
	w := New(8).MarkCacheable()
	key := DerivedKey{Kind: 1}
	builds := 0
	stale, ok := w.Derive(key, func() (any, int64) {
		builds++
		v, n := quantCopy(w)()
		w.Data()[0] = 3 // the in-place mutation ...
		w.InvalidateCache()
		return v, n
	})
	if !ok || stale.([]float32)[0] != 0 {
		t.Fatalf("overlapped build not returned to its own caller: %v %v", stale, ok)
	}
	if b, _ := w.DerivedBytes(); b != 0 {
		t.Fatalf("overlapped build was installed: tensor holds %d bytes", b)
	}
	fresh, _ := w.Derive(key, func() (any, int64) { builds++; return quantCopy(w)() })
	if builds != 2 || fresh.([]float32)[0] != 3 {
		t.Fatalf("next lookup was served the stale operand: builds=%d value=%v", builds, fresh.([]float32)[0])
	}
}

// TestDeriveHitTakesNoLockAndNoAlloc: the kernel-path lookup of a built
// operand completes while a builder holds the tensor's mutex, and allocates
// nothing.
func TestDeriveHitTakesNoLockAndNoAlloc(t *testing.T) {
	w := New(64).MarkCacheable()
	key := DerivedKey{Kind: 1}
	build := quantCopy(w)
	want, _ := w.Derive(key, build)

	w.deriveMu.Lock()
	done := make(chan any, 1)
	go func() { v, _ := w.Derive(key, build); done <- v }()
	select {
	case got := <-done:
		if &got.([]float32)[0] != &want.([]float32)[0] {
			t.Error("hit returned a different operand")
		}
	case <-time.After(5 * time.Second):
		t.Error("hit blocked on the builders' mutex")
	}
	w.deriveMu.Unlock()

	if allocs := testing.AllocsPerRun(100, func() { w.Derive(key, build) }); allocs != 0 {
		t.Errorf("hit path allocates %v times per lookup", allocs)
	}
}

// TestDeriveAccounting follows the gauge through install, a second key, an
// oversized operand (returned, not kept) and invalidation — including the
// operands of an operand that is itself a marked tensor.
func TestDeriveAccounting(t *testing.T) {
	w := New(16).MarkCacheable()
	start := settledDerivedBytes()
	held := func() float64 { return mDerivedBytes.Value() - start }

	w.Derive(DerivedKey{Kind: 1}, quantCopy(w))
	w.Derive(DerivedKey{Kind: 1}, quantCopy(w)) // hit: no change
	var sub *Tensor
	w.Derive(DerivedKey{Kind: 2, P0: 2}, func() (any, int64) {
		sub = New(8).MarkCacheable()
		return sub, 32
	})
	sub.Derive(DerivedKey{Kind: 1}, quantCopy(sub))
	if b, _ := w.DerivedBytes(); b != 64+32 || held() != 64+32+32 {
		t.Fatalf("tensor holds %d bytes, gauge rose by %v; want 96 and 128", b, held())
	}

	big, ok := w.Derive(DerivedKey{Kind: 3}, func() (any, int64) { return "big", maxDerivedBytes + 1 })
	if !ok || big != "big" {
		t.Fatalf("oversized operand not returned: %v %v", big, ok)
	}
	if b, _ := w.DerivedBytes(); b != 96 {
		t.Fatalf("oversized operand was kept: %d bytes", b)
	}

	w.InvalidateCache()
	if b, _ := sub.DerivedBytes(); b != 0 || held() != 0 {
		t.Fatalf("after InvalidateCache the nested tensor holds %d bytes and the gauge is off by %v", b, held())
	}
}
