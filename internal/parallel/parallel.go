// Package parallel provides the small data-parallel looping primitives the
// tensor kernels are built on. Work is chunked across GOMAXPROCS workers;
// on a single-core host the loops degrade gracefully to sequential
// execution with negligible overhead.
//
// All loops run on one process-wide team: the calling goroutine plus
// GOMAXPROCS-1 helper goroutines that are started on the first dispatch and
// then live as long as the process. A loop publishes one job in the team's
// single slot; the caller and the helpers claim its chunks from one atomic
// counter, so the caller never waits for a helper that has not taken work,
// and which thread runs which chunk is the only thing that varies from run
// to run — the partition itself is a pure function of (n, GOMAXPROCS). A
// helper that runs dry keeps polling the slot for spinFor before it parks,
// because a kernel dispatches its next loop tens of microseconds after the
// last one and waking a parked thread costs more than most loop bodies.
//
// A loop that finds the slot taken — it is nested inside another parallel
// loop (a tensor kernel invoked from a batched config evaluation or a batch
// shard), or another goroutine is mid-dispatch — runs its chunks inline on
// the caller. Nested parallelism therefore cannot multiply worker counts:
// the process never runs more than GOMAXPROCS compute goroutines regardless
// of nesting depth.
package parallel

import (
	"runtime"
	"sync/atomic"
	"time"
)

const (
	// spinFor is how long a helper polls for the next job after its last
	// chunk, and how long a caller polls for its helpers' last chunks, before
	// either parks. On the reference host (2 vCPU KVM guest) handing work to
	// a thread that is still polling costs the caller 0.3–0.6 µs, to one
	// that has parked 13–15 µs (futex wake, IPI, VM exit), and one
	// graph.Execute dispatches every 30–200 µs. Geomean of the benchmark's
	// 16 batch-1 cells by bound, five interleaved runs each: 0 → 1163 µs (no
	// gain over spawning a goroutine per chunk, 1200: the gain is the warm
	// helper), 50 µs → 779, 200 µs → 738, 1 ms → 704 (EXPERIMENTS.md, "A
	// warm worker team"). 200 µs covers the gaps inside one Execute and is
	// all an idle process pays before its helpers sleep.
	spinFor = 200 * time.Microsecond

	// chunksPerWorker is how finely a loop is cut beyond one chunk per
	// worker. A finer cut leaves the caller a smaller remainder to wait for
	// when a helper arrives late, and costs every chunk its scratch and the
	// GEMM its panel-block size — also in a nested loop, which runs all its
	// chunks inline. Same host, geomean of the 16 batch-1 cells: 1 → 687 µs,
	// 2 → 772, 4 → 821 (the spawn-per-call dispatch this replaced: 1203); of
	// the 16 batch-16 cells: 1 → 9.45 ms, 2 → 10.16 (spawn-per-call: 9.73).
	chunksPerWorker = 1
)

// A job is one loop in flight: a partition of [0,n) into chunks of size
// (the last one shorter) that the team claims by incrementing next.
type job struct {
	fn              func(lo, hi int)
	n, size, chunks int
	next            atomic.Int32        // chunks claimed; polling helpers may overshoot chunks
	pending         atomic.Int32        // chunks not yet finished, plus one the caller holds until it sleeps on team.joined
	panicked        atomic.Pointer[any] // first value a chunk panicked with
}

// team is the process-wide worker team. cur is the slot: nil when no loop
// is dispatching.
var team = struct {
	cur     atomic.Pointer[job]
	jobs    atomic.Uint32 // loops the team has been handed, for helpers to notice one they got no chunk of
	helpers atomic.Int32  // started so far
	parked  atomic.Int32  // helpers asleep on wake, or about to be
	wake    chan struct{} // one token rouses one parked helper, which rouses the next
	joined  chan struct{} // the slot's owner sleeps here for its last chunks
}{wake: make(chan struct{}, 1), joined: make(chan struct{}, 1)}

// Workers returns the target parallel width of this process (GOMAXPROCS),
// the natural batch size for concurrent config evaluation.
func Workers() int { return runtime.GOMAXPROCS(0) }

// Serial reports whether the loop helpers would run everything on the
// calling goroutine anyway (single-proc process). Hot kernels branch on it
// to call their loop body directly: a closure passed to For/ForChunked
// escapes to the heap at every call site, and on the GEMM dispatch path
// that is one allocation per call.
func Serial() bool { return runtime.GOMAXPROCS(0) <= 1 }

// Available reports how many extra workers a loop started right now would
// share its chunks with: GOMAXPROCS-1 while the team's slot is free, none
// while another loop holds it. It is a racy snapshot, not a reservation —
// callers use it as a heuristic (graph batch sharding skips the split when
// the process is already inside an outer parallel loop, where the shards
// would all run inline anyway).
func Available() int {
	if team.cur.Load() != nil {
		return 0
	}
	return runtime.GOMAXPROCS(0) - 1
}

// For runs fn(i) for every i in [0,n), splitting the index space into
// contiguous chunks executed by up to GOMAXPROCS goroutines. It returns
// once every iteration has completed. fn must be safe to call concurrently
// for distinct i.
func For(n int, fn func(i int)) {
	ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForChunked runs fn(lo,hi) over a partition of [0,n) into contiguous
// half-open chunks, chunksPerWorker per worker, and returns once every
// chunk has run. Chunking amortizes dispatch overhead when the per-index
// work is small. The calling goroutine works through the chunks alongside
// the team's helpers; when the team is busy with another loop it runs them
// all itself, so nested ForChunked calls degrade to sequential execution
// instead of multiplying goroutines. If a chunk panics, the remaining
// chunks still run and ForChunked then panics on the caller with the first
// chunk's value, whichever goroutine ran it.
func ForChunked(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || n == 1 {
		fn(0, n)
		return
	}
	parts := min(n, workers*chunksPerWorker)
	size := (n + parts - 1) / parts
	if team.cur.Load() == nil {
		j := &job{fn: fn, n: n, size: size, chunks: (n + size - 1) / size}
		j.pending.Store(int32(j.chunks) + 1)
		if team.cur.CompareAndSwap(nil, j) {
			j.dispatch(workers - 1)
			return
		}
	}
	for lo := 0; lo < n; lo += size {
		fn(lo, min(lo+size, n))
	}
}

// dispatch runs j, which holds the team's slot, to completion on the caller
// and up to the given number of helpers, and releases the slot.
func (j *job) dispatch(helpers int) {
	// Holding the slot makes this the only goroutine that can be here. The
	// team only ever grows: after GOMAXPROCS is lowered the surplus helpers
	// keep claiming chunks and the scheduler multiplexes them.
	for int(team.helpers.Load()) < helpers {
		team.helpers.Add(1)
		go help()
	}
	team.jobs.Add(1)
	rouse()
	j.work()
	j.wait()
	team.cur.Store(nil)
	if p := j.panicked.Load(); p != nil {
		panic(*p)
	}
}

// work claims and runs chunks of j until none is left unclaimed, and
// reports whether it ran any.
func (j *job) work() bool {
	ran := false
	for j.open() {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			break
		}
		j.run(c)
		ran = true
	}
	return ran
}

// open reports whether j still has an unclaimed chunk.
func (j *job) open() bool { return int(j.next.Load()) < j.chunks }

// run executes chunk c. A panic in fn is kept for the caller rather than
// allowed to unwind a helper, whose death would take the process with it.
func (j *job) run(c int) {
	defer func() {
		if r := recover(); r != nil {
			j.panicked.CompareAndSwap(nil, &r)
		}
		if j.pending.Add(-1) == 0 {
			team.joined <- struct{}{} // only a caller that gave up its hold lets this reach zero
		}
	}()
	lo := c * j.size
	j.fn(lo, min(lo+j.size, j.n))
}

// wait returns once every chunk of j has finished. Only chunks a helper
// has already claimed can be outstanding, so the wait is at most one
// chunk's run time: poll for spinFor, yielding the processor to whatever
// else is runnable, then give up the hold on pending and sleep until the
// goroutine that finishes the last chunk sends.
func (j *job) wait() {
	if j.pending.Load() == 1 {
		return
	}
	start := time.Now()
	for j.pending.Load() > 1 {
		if time.Since(start) >= spinFor {
			if j.pending.Add(-1) > 0 {
				<-team.joined
			}
			return
		}
		yield()
	}
}

// yield is one turn of a polling loop: it offers the processor to any
// runnable goroutine and the core to any runnable thread. The second half
// matters when the kernel has put a freshly woken helper's thread on the
// caller's core (on the reference KVM guest it does, whenever the other
// vCPU has been halted long enough to be flagged preempted): a helper that
// only polled would hold that core for spinFor while the caller, the one
// goroutine that can hand it work, waits for it — and park before the load
// balancer ever saw two runnable threads to pull apart.
func yield() {
	runtime.Gosched()
	osYield()
}

// rouse wakes one parked helper, if any is parked.
func rouse() {
	if team.parked.Load() > 0 {
		select {
		case team.wake <- struct{}{}:
		default: // a token is already waiting for the next helper to park
		}
	}
}

// help is a helper's life: run chunks of whatever job is in the slot, poll
// for the next one until spinFor has passed without a dispatch, then park
// until one rouses it. A dispatch whose caller took every chunk before this
// helper looked counts too: parked, the helper would cost that caller a
// wake-up per loop however small the loops are.
func help() {
	idle, seen := time.Now(), team.jobs.Load()
	for {
		if j := team.cur.Load(); j != nil && j.work() {
			idle = time.Now()
			continue
		}
		if n := team.jobs.Load(); n != seen {
			idle, seen = time.Now(), n
		}
		if time.Since(idle) < spinFor {
			yield()
			continue
		}
		// Announce, then look again: a dispatch that published before it saw
		// the announcement is caught by the second look, one that published
		// after it sends a token.
		team.parked.Add(1)
		j := team.cur.Load()
		if j == nil || !j.open() {
			<-team.wake
			j = team.cur.Load()
		}
		team.parked.Add(-1)
		if j != nil && int(j.next.Load())+1 < j.chunks {
			rouse() // more than this helper's next chunk is left: pass the wake on
		}
		idle = time.Now()
	}
}
