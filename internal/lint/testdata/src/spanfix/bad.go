// Package spanfix is a lint fixture: obs span hygiene.
package spanfix

import (
	"context"

	"repro/internal/obs"
)

// Leak starts a span and never ends it — flagged where the function
// falls off its end.
func Leak(t *obs.Tracer) {
	sp := t.Start("leak")
	_ = sp.AcquireDetail() // want spanend
}

// Deferred ends the span with defer — clean.
func Deferred(t *obs.Tracer) {
	sp := t.Start("ok")
	defer sp.End()
}

// Bypass ends the span explicitly but an earlier return can skip it —
// flagged at the return.
func Bypass(t *obs.Tracer, fail bool) {
	sp := t.Start("bypass")
	if fail {
		return // want spanend
	}
	sp.End()
}

// Transfer hands ownership to the caller — clean.
func Transfer(t *obs.Tracer) *obs.Span {
	sp := t.Start("transfer")
	return sp
}

// Stored moves the span into a struct; the owner ends it elsewhere — clean.
func Stored(t *obs.Tracer, holder *struct{ S *obs.Span }) {
	sp := t.Start("stored")
	holder.S = sp
}

// Chained ends through a pass-through method chain — clean.
func Chained(t *obs.Tracer) {
	sp := t.Start("chained")
	defer sp.With("k", 1).End()
}

// Closure ends the span inside a deferred closure — clean.
func Closure(t *obs.Tracer) {
	sp := t.Start("closure")
	defer func() {
		sp.End()
	}()
}

// LeakCtx starts a context-scoped span (multi-value assignment) and
// never ends it — flagged at the return.
func LeakCtx(t *obs.Tracer, ctx context.Context) context.Context {
	ctx, sp := t.StartCtx(ctx, "leak-ctx")
	sp.AcquireDetail()
	return ctx // want spanend
}

// DeferredCtx ends the context-scoped span with defer — clean.
func DeferredCtx(t *obs.Tracer, ctx context.Context) {
	_, sp := t.StartCtx(ctx, "ok-ctx")
	defer sp.End()
}

// BypassCtx ends the context-scoped span explicitly but an earlier
// return can skip it — flagged at the return.
func BypassCtx(t *obs.Tracer, ctx context.Context, fail bool) {
	_, sp := t.StartCtx(ctx, "bypass-ctx")
	if fail {
		return // want spanend
	}
	sp.End()
}

// PackageCtx uses the package-level helper — same multi-value shape,
// flagged when leaked.
func PackageCtx(ctx context.Context) context.Context {
	ctx, sp := obs.StartCtx(ctx, "pkg-ctx")
	sp.AcquireDetail()
	return ctx // want spanend
}

// IntoContext stores the span in a context: ownership moves with the
// context (the holder ends it via SpanFromContext) — clean.
func IntoContext(t *obs.Tracer, ctx context.Context) context.Context {
	sp := t.Start("into-ctx")
	return obs.ContextWithSpan(ctx, sp)
}
