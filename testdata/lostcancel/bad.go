// Package lostcancel is what `make vet-selftest` runs `go vet` over.
// Uncalled context cancel functions are `go vet`'s lostcancel pass to
// find, and the selftest fails unless vet still reports the two marked
// lines.
package lostcancel

import (
	"context"
	"errors"
	"time"
)

var errFailed = errors.New("failed")

func work(ctx context.Context) error { return ctx.Err() }

// DiscardedCancel throws the cancel func away: the derived context
// leaks until its parent is cancelled.
func DiscardedCancel(ctx context.Context) error {
	tctx, _ := context.WithTimeout(ctx, time.Second) // vet: lostcancel
	return work(tctx)
}

// LeakOnEarlyReturn misses cancel on the failure path.
func LeakOnEarlyReturn(ctx context.Context, fail bool) error {
	cctx, cancel := context.WithCancel(ctx)
	if fail {
		return errFailed // vet: lostcancel
	}
	err := work(cctx)
	cancel()
	return err
}
