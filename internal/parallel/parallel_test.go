package parallel

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// countHits runs For over n indices and fails unless each ran exactly once.
func countHits(t *testing.T, n int, what string) {
	t.Helper()
	hits := make([]int32, n)
	For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Errorf("%s: index %d of %d executed %d times, want exactly once", what, i, n, h)
			return
		}
	}
}

// holdSlot occupies the team's slot the way an outer loop does, until the
// returned release is called.
func holdSlot(t *testing.T) (release func()) {
	t.Helper()
	outer := &job{}
	deadline := time.Now().Add(5 * time.Second)
	for !team.cur.CompareAndSwap(nil, outer) {
		if time.Now().After(deadline) {
			t.Fatal("the team's slot never came free")
		}
		runtime.Gosched()
	}
	return func() { team.cur.Store(nil) }
}

// waitParked blocks until every helper started so far sleeps on team.wake.
func waitParked(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for team.parked.Load() != team.helpers.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d helpers parked after 5 s of idleness", team.parked.Load(), team.helpers.Load())
		}
		time.Sleep(spinFor)
	}
}

// goid is the calling goroutine's number, read off its stack header.
func goid() int {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, err := strconv.Atoi(string(f[1]))
	if err != nil {
		panic("no goroutine id in " + string(buf[:]))
	}
	return id
}

func TestForCoversAllIndices(t *testing.T) {
	countHits(t, 1000, "idle team")
}

func TestForZeroAndNegative(t *testing.T) {
	ran := false
	For(0, func(i int) { ran = true })
	For(-5, func(i int) { ran = true })
	if ran {
		t.Fatal("For must not run any iteration for n <= 0")
	}
}

func TestForChunkedPartition(t *testing.T) {
	// Property: chunks form a partition of [0,n) for any n, and the
	// partition is the same whether the team or the caller alone runs it.
	partition := func(n int) map[[2]int]bool {
		var mu sync.Mutex
		got := map[[2]int]bool{}
		ForChunked(n, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			if lo < 0 || hi > n || lo >= hi || got[[2]int{lo, hi}] {
				t.Errorf("bad or repeated chunk [%d,%d) for n=%d", lo, hi, n)
			}
			got[[2]int{lo, hi}] = true
		})
		return got
	}
	f := func(n uint8) bool {
		total := int(n)
		shared := partition(total)
		release := holdSlot(t)
		inline := partition(total)
		release()
		covered := 0
		for c := range shared {
			covered += c[1] - c[0]
			if !inline[c] {
				t.Errorf("n=%d: chunk %v of the team's partition is not in the inline one %v", total, c, inline)
			}
		}
		return covered == total && len(inline) == len(shared)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestForChunkedRunsWithDrainedTokenPool keeps its name from the token pool
// this team replaced: with the slot taken (the state every nested loop
// observes) ForChunked must run inline — covering all indices, never
// blocking, offering nothing.
func TestForChunkedRunsWithDrainedTokenPool(t *testing.T) {
	defer holdSlot(t)()
	if got := Available(); got != 0 {
		t.Errorf("Available() = %d with the slot taken, want 0", got)
	}
	caller := goid()
	ForChunked(257, func(lo, hi int) {
		if g := goid(); g != caller {
			t.Errorf("chunk [%d,%d) ran on goroutine %d with the slot taken, want the caller's %d", lo, hi, g, caller)
		}
	})
	countHits(t, 257, "slot taken")
}

func TestSlotFreeAfterLoops(t *testing.T) {
	for r := 0; r < 50; r++ {
		For(64, func(i int) {})
	}
	if got, want := Available(), runtime.GOMAXPROCS(0)-1; got != want {
		t.Fatalf("Available() = %d after loops, want %d", got, want)
	}
}

func TestNestedParallelismBounded(t *testing.T) {
	// A loop nested inside another loop must not multiply worker counts:
	// concurrently running chunk bodies never exceed the caller plus the
	// team's helpers, not outer×inner.
	var cur, peak int32
	enter := func() {
		c := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
	}
	For(32, func(i int) {
		enter()
		countHits(t, 32, "nested")
		atomic.AddInt32(&cur, -1)
	})
	if bound := 1 + team.helpers.Load(); peak > bound {
		t.Fatalf("nested loops reached %d concurrent bodies, bound %d", peak, bound)
	}
	if got, want := Available(), runtime.GOMAXPROCS(0)-1; got != want {
		t.Fatalf("Available() = %d after nested loops, want %d", got, want)
	}
}

// TestConcurrentCallers: loops started from several goroutines at once share
// one slot; whoever loses it runs inline, and nobody loses or repeats an
// index.
func TestConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				countHits(t, 1+(r*7)%97, "concurrent caller")
			}
		}()
	}
	wg.Wait()
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d, want >= 1", Workers())
	}
}

func TestForUsesMultipleGoroutinesWhenAvailable(t *testing.T) {
	if Serial() {
		t.Skip("single-proc host: parallel dispatch degenerates to sequential")
	}
	// The loop can only finish in time if a helper takes part.
	meet(t)
}

// meet runs one loop whose first chunk waits for a second goroutine to enter
// a chunk, and fails if none does.
func meet(t *testing.T) {
	t.Helper()
	var inside atomic.Int32
	ForChunked(4*Workers(), func(lo, hi int) {
		if inside.Add(1) > 1 {
			return
		}
		for deadline := time.Now().Add(5 * time.Second); inside.Load() < 2; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Error("no second goroutine entered the loop within 5 s")
				return
			}
		}
	})
}

// TestDispatchWakesParkedHelpers: a loop dispatched after the helpers have
// gone to sleep gets them back.
func TestDispatchWakesParkedHelpers(t *testing.T) {
	if Serial() {
		t.Skip("single-proc host: no helpers")
	}
	For(64, func(int) {}) // start the team
	for round := 0; round < 3; round++ {
		waitParked(t)
		meet(t)
		countHits(t, 1000, "after a wake")
	}
}

// TestCallerOutlastsSlowHelperChunk: a caller that has run out of chunks
// polls for spinFor and then sleeps; the helper that finishes last must get
// it back, and not before its chunk is done.
func TestCallerOutlastsSlowHelperChunk(t *testing.T) {
	if Serial() {
		t.Skip("single-proc host: no helpers")
	}
	caller := goid()
	for round := 0; round < 3; round++ {
		var onHelper, finished atomic.Int32
		ForChunked(Workers(), func(lo, hi int) {
			if goid() != caller {
				onHelper.Add(1)
				time.Sleep(20 * spinFor)
				finished.Add(1)
				return
			}
			for deadline := time.Now().Add(5 * time.Second); onHelper.Load() == 0; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Error("no helper entered the loop within 5 s")
					return
				}
			}
		})
		if on, done := onHelper.Load(), finished.Load(); on == 0 || on != done {
			t.Fatalf("round %d: ForChunked returned with %d of %d helper chunks finished", round, done, on)
		}
	}
}

// TestPanicInChunkReachesCaller: a chunk that panics on a helper must not
// kill the process; the caller gets the value once the loop has joined, and
// the team goes on working.
func TestPanicInChunkReachesCaller(t *testing.T) {
	if Serial() {
		t.Skip("single-proc host: no helpers")
	}
	type boom struct{ chunk int }
	helpers := func() int32 { For(64, func(int) {}); return team.helpers.Load() }
	before := helpers()

	caller := goid()
	var onHelper atomic.Int32
	var got any
	func() {
		defer func() { got = recover() }()
		ForChunked(4*Workers(), func(lo, hi int) {
			if goid() != caller {
				onHelper.Add(1)
				panic(boom{lo})
			}
			// The caller holds its chunk until a helper has taken one.
			for deadline := time.Now().Add(5 * time.Second); onHelper.Load() == 0; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Error("no helper entered the loop within 5 s")
					return
				}
			}
		})
		t.Error("ForChunked returned normally although a chunk panicked")
	}()
	if _, ok := got.(boom); !ok {
		t.Fatalf("caller recovered %#v, want the helper's boom value", got)
	}

	// And on the caller's own chunk, for every position in the loop.
	for k := 0; k < 4*Workers(); k++ {
		func() {
			defer func() {
				if r := recover(); r != (boom{k}) {
					t.Errorf("panic in chunk %d: caller recovered %#v", k, r)
				}
			}()
			For(4*Workers(), func(i int) {
				if i == k {
					panic(boom{k})
				}
			})
		}()
	}

	if got, want := Available(), runtime.GOMAXPROCS(0)-1; got != want {
		t.Fatalf("Available() = %d after panics, want %d: the slot leaked", got, want)
	}
	countHits(t, 1000, "after a panic")
	if after := helpers(); after != before {
		t.Errorf("team has %d helpers after panics, had %d", after, before)
	}
	meet(t)
}

// TestDispatchAllocs pins what one dispatch allocates: the loop body's
// closure, which escapes at every call site, and the job.
func TestDispatchAllocs(t *testing.T) {
	var sink atomic.Int64
	allocs := testing.AllocsPerRun(1000, func() {
		ForChunked(64, func(lo, hi int) { sink.Add(int64(hi - lo)) })
	})
	if allocs > 2 {
		t.Errorf("ForChunked allocates %.1f objects per dispatch, want at most 2 (closure + job)", allocs)
	}
}
