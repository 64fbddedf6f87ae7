package parallel

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// BenchmarkForChunkedAfterGap is what one dispatch of an empty loop costs its
// caller when the caller did something else for gap since the last one.
// Back-to-back dispatches (gap 0, the repo benchmark's
// parallel.for_chunked.dispatch_us row) always find the other threads awake;
// a kernel's next loop comes 30–200 µs after its last, and a dispatch that
// has to wake a sleeping thread first pays for that on the caller. The gap is
// busy work on the calling goroutine, not sleep. mean-µs and p50-µs are the
// time inside ForChunked alone (ns/op includes the gap); the two differ where
// some dispatches find the helpers polling and some find them parked.
//
//	go test ./internal/parallel -run '^$' -bench AfterGap -cpu 2 -benchtime 3000x
func BenchmarkForChunkedAfterGap(b *testing.B) {
	for _, gap := range []time.Duration{0, 20 * time.Microsecond, 100 * time.Microsecond, 500 * time.Microsecond, time.Millisecond} {
		b.Run(fmt.Sprintf("gap=%v", gap), func(b *testing.B) {
			took := make([]time.Duration, b.N)
			var sum time.Duration
			for i := range took {
				for t0 := time.Now(); time.Since(t0) < gap; {
				}
				t0 := time.Now()
				ForChunked(4*Workers(), func(lo, hi int) {})
				took[i] = time.Since(t0)
				sum += took[i]
			}
			sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
			b.ReportMetric(float64(sum.Nanoseconds())/1e3/float64(b.N), "mean-µs")
			b.ReportMetric(float64(took[b.N/2].Nanoseconds())/1e3, "p50-µs")
		})
	}
}
