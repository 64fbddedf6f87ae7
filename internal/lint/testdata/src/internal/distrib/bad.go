// Package distrib is a lint fixture: context lifecycle discipline on
// the distributed request paths. Cancel functions must run on every
// path, and a function already holding a ctx must not mint a detached
// root context.
package distrib

import (
	"context"
	"errors"
	"time"
)

var errFailed = errors.New("failed")

func work(ctx context.Context) error { return ctx.Err() }

// DeferCancel is the canonical pattern — clean.
func DeferCancel(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	return work(ctx)
}

// DetachedBackground mints a root context inside a function that
// already receives one, detaching this path from the caller's deadline.
func DetachedBackground(ctx context.Context) error {
	dctx, cancel := context.WithTimeout(context.Background(), time.Second) // want ctxflow
	defer cancel()
	return work(dctx)
}

// NilGuard is the canonical defaulting pattern — clean.
func NilGuard(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return work(ctx)
}

// NoCtxParam receives no context: minting a root is its job — clean.
func NoCtxParam() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return work(ctx)
}

// HandedOff transfers the cancel func to a registry; the new owner is
// responsible for calling it — clean here.
func HandedOff(ctx context.Context, reg func(context.CancelFunc)) {
	_, cancel := context.WithCancel(ctx)
	reg(cancel)
}
