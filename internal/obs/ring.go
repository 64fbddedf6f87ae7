package obs

import (
	"sync"
	"sync/atomic"
)

// ring is a bounded most-recent buffer, safe for concurrent use: once max
// items are held, each push overwrites the oldest. It is the retention
// behind the tracer's span ring, the tail sampler's kept traces and each
// flight-recorder shard.
type ring[T any] struct {
	mu      sync.Mutex
	buf     []T
	head    int // buf[head] is the oldest item once the ring is full
	max     int
	dropped atomic.Int64 // items overwritten so far
}

func (r *ring[T]) push(v T) {
	r.mu.Lock()
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.head] = v
		r.head = (r.head + 1) % r.max
		r.dropped.Add(1)
	}
	r.mu.Unlock()
}

// items returns a copy of the retained items, oldest first.
func (r *ring[T]) items() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}
