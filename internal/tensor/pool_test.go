package tensor

import "testing"

func TestScratchLengthAndClass(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 1000, 4096, 100000} {
		buf := Scratch(n)
		if len(buf) != n {
			t.Fatalf("Scratch(%d) has len %d", n, len(buf))
		}
		if c := cap(buf); c&(c-1) != 0 {
			t.Fatalf("Scratch(%d) cap %d not a power of two", n, c)
		}
		Release(&buf)
	}
	if Scratch(0) != nil || Scratch(-3) != nil {
		t.Fatal("non-positive Scratch must return nil")
	}
}

func TestScratchReusesReleasedBuffer(t *testing.T) {
	// Same size class round-trip: the released buffer must come back.
	// sync.Pool may drop entries under GC pressure, so retry a few times
	// rather than asserting on a single round-trip.
	reused := false
	for try := 0; try < 10 && !reused; try++ {
		a := Scratch(1 << 10)
		a[0] = 42
		p := &a[0]
		Release(&a)
		b := Scratch(1 << 10)
		if &b[0] == p {
			reused = true
		}
		Release(&b)
	}
	if !reused {
		t.Error("pool never reused a released buffer")
	}
}

func TestReleaseForeignBufferIsDropped(t *testing.T) {
	// A buffer whose capacity a caller cut to an odd size must not poison
	// the arenas.
	odd := Scratch(100)[:100:100]
	Release(&odd)
	buf := Scratch(100)
	if c := cap(buf); c&(c-1) != 0 {
		t.Fatalf("arena returned non-power-of-two cap %d", c)
	}
	Release(&buf)
	var none []float32
	Release(&none)
}

func TestReleaseNilsTheSliceOnce(t *testing.T) {
	before := Outstanding()
	buf := Scratch(1000)
	Release(&buf)
	if buf != nil {
		t.Fatal("Release left the caller's slice non-nil")
	}
	Release(&buf) // a second release of the same variable does nothing
	if got := Outstanding(); got != before {
		t.Fatalf("Outstanding() = %d after one Scratch and two Releases, want %d", got, before)
	}
	defer func() {
		if recover() == nil {
			t.Error("reading a released buffer did not panic")
		}
	}()
	_ = buf[0]
}

func TestOutstandingCountsEveryBuffer(t *testing.T) {
	before := Outstanding()
	sizes := []int{-3, 0, 1, 63, 64, 1 << 12, 1<<maxPoolClass + 1}
	bufs := make([][]float32, len(sizes))
	held := int64(0)
	for i, n := range sizes {
		bufs[i] = Scratch(n)
		if n > 0 {
			held++
		}
		if got := Outstanding() - before; got != held {
			t.Fatalf("after Scratch(%d): %d outstanding, want %d", n, got, held)
		}
	}
	for i := range bufs {
		Release(&bufs[i])
	}
	if got := Outstanding(); got != before {
		t.Fatalf("Outstanding() = %d after releasing all, want %d", got, before)
	}
}

func TestScratchRoundTripAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	buf := Scratch(1 << 10)
	Release(&buf) // warm the class and the header pool
	if allocs := testing.AllocsPerRun(100, func() {
		b := Scratch(1 << 10)
		Release(&b)
	}); allocs != 0 {
		t.Fatalf("Scratch/Release round trip allocates %.1f times, want 0", allocs)
	}
}

func TestPoolClassBounds(t *testing.T) {
	if c := poolClass(1 << 30); c != -1 {
		t.Fatalf("oversized request got class %d, want -1", c)
	}
	if c := poolClass(1); c != minPoolClass {
		t.Fatalf("tiny request got class %d, want %d", c, minPoolClass)
	}
	if c := poolClass(1 << maxPoolClass); c != maxPoolClass {
		t.Fatalf("max request got class %d, want %d", c, maxPoolClass)
	}
}
