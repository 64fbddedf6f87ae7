package tensor

import (
	"math"
	"testing"
)

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

// TestRecycleAllocFreeAndUncounted: Recycle hands a pooled tensor's buffer
// back without allocating and without touching Outstanding, which counts
// Scratch buffers only.
func TestRecycleAllocFreeAndUncounted(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	before := Outstanding()
	x := NewPooled(1 << 10)
	shape := x.shape
	Recycle(x) // warm the class and the header pool
	if x.Data() != nil {
		t.Fatal("Recycle left the tensor holding its buffer")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		x.data = draw(shape.Elems())
		Recycle(x)
	}); allocs != 0 {
		t.Fatalf("Recycle allocates %.1f times per round trip, want 0", allocs)
	}
	if Outstanding() != before {
		t.Fatalf("Outstanding moved %d -> %d", before, Outstanding())
	}
}

// TestPooledTensorsPoisonedAndCopied: NewPooled and NewPooledLike hand out
// a power-of-two buffer of the asked shape whose contents are the caller's
// to store — under PoisonDraws every element arrives as PoisonBits, whatever
// the buffer last held, as Scratch's do — and ClonePooled is an exact copy.
func TestPooledTensorsPoisonedAndCopied(t *testing.T) {
	defer PoisonDraws(PoisonDraws(true))
	src := New(3, 100)
	NewRNG(1).FillNormal(src, 0, 1)
	for try := 0; try < 4; try++ {
		dirty := NewPooled(300)
		dirty.Fill(7)
		Recycle(dirty)
		z := NewPooled(3, 100)
		if z.Rank() != 2 || z.Elems() != 300 || cap(z.Data())&(cap(z.Data())-1) != 0 {
			t.Fatalf("NewPooled(3, 100): shape %v, cap %d", z.Shape(), cap(z.Data()))
		}
		like := NewPooledLike(src)
		if !like.Shape().Equal(src.Shape()) {
			t.Fatalf("NewPooledLike: shape %v, want %v", like.Shape(), src.Shape())
		}
		s := Scratch(300)
		for i := range z.Data() {
			for _, v := range []float32{z.Data()[i], like.Data()[i], s[i]} {
				if math.Float32bits(v) != PoisonBits {
					t.Fatalf("element %d of a drawn buffer is %#08x, not the poison", i, math.Float32bits(v))
				}
			}
		}
		Release(&s)
		Recycle(z)
		Recycle(like)
		if c := src.ClonePooled(); !Equal(c, src, 0) || !c.Shape().Equal(src.Shape()) {
			t.Fatal("ClonePooled is not a copy")
		}
	}
}
