package obs

// TailSamplerOptions configures nothing.
//
// Deprecated: kept because benchmark/serve.go still uses it, and that
// file changes only with the benchmark; delete it with the next benchmark
// change.
type TailSamplerOptions struct {
	Seed int64
}

// TailSampler is a SpanSink that discards every span.
//
// Deprecated: kept for benchmark/serve.go; delete it with the next
// benchmark change.
type TailSampler struct{}

// NewTailSampler returns a TailSampler.
//
// Deprecated: kept for benchmark/serve.go; delete it with the next
// benchmark change.
func NewTailSampler(TailSamplerOptions) *TailSampler { return &TailSampler{} }

// OnSpanEnd does nothing (SpanSink).
func (*TailSampler) OnSpanEnd(SpanRecord) {}
