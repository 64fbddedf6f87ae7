package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// admit parses, validates and enqueues one request under a serve:admit
// child span. On rejection it answers the request itself and returns a
// nil pending with the status written; on success the batcher owns the
// returned pending and the caller must invoke the cancel func.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, sp *obs.Span) (*pending, context.CancelFunc, int) {
	asp := sp.Child("serve:admit")
	defer asp.End()

	var req InferRequest
	body, err := readBody(w, r, obs.MaxBodyBytes)
	// The decoder copies what it keeps, errors included.
	defer releaseBody(body)
	if err == nil {
		// The whole request is in memory: from here until it is enqueued
		// or refused, the batcher may wait for it.
		s.arriving.Add(1)
		defer s.arrived()
		err = decodeInferRequest(body.Bytes(), &req)
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		obs.ReplyError(w, code, fmt.Sprintf("bad request body: %v", err))
		return nil, nil, code
	}
	in, items, err := s.admitTensor(req.Input)
	if err != nil {
		obs.ReplyError(w, http.StatusBadRequest, err.Error())
		return nil, nil, http.StatusBadRequest
	}
	if items > s.cfg.MaxBatch {
		obs.ReplyError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request carries %d items, server max_batch is %d", items, s.cfg.MaxBatch))
		return nil, nil, http.StatusRequestEntityTooLarge
	}
	asp.With("items", items)

	// No request waits longer than four SLOs; deadline_ms may tighten that.
	wait := 4 * s.cfg.SLO
	if req.DeadlineMs > 0 {
		if d := time.Duration(req.DeadlineMs * float64(time.Millisecond)); d < wait {
			wait = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	p := &pending{in: in, items: items, ctx: ctx, enq: time.Now(), res: make(chan result, 1), sc: sp.Context()}
	switch s.enqueue(p) {
	case admitOK:
		return p, cancel, http.StatusOK
	case admitDraining:
		cancel()
		s.stats.rejected.Add(1)
		mRejectedDrain.Inc()
		obs.Flight().Event("serve.rejected_draining", "", sp.TraceID())
		w.Header().Set("Retry-After", "1")
		obs.ReplyError(w, http.StatusServiceUnavailable, "server is draining")
		return nil, nil, http.StatusServiceUnavailable
	default: // admitFull
		cancel()
		s.stats.rejected.Add(1)
		mRejectedFull.Inc()
		obs.Flight().Event("serve.rejected_full", "", sp.TraceID())
		w.Header().Set("Retry-After", "1")
		obs.ReplyError(w, http.StatusTooManyRequests, "admission queue full")
		return nil, nil, http.StatusTooManyRequests
	}
}

// bodies recycles request-body buffers between requests: at a thousand
// small requests a second the bodies were an eighth of the server's
// garbage, and the garbage made during a collection is what the process
// holds beyond its live heap.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads an inference request body of at most limit bytes into a
// buffer from the pool; the caller hands it to releaseBody once nothing
// refers to its bytes. A declared Content-Length sizes the buffer before
// the read — up to bodyPresize, so that a header alone cannot reserve
// more — where growing from 512 bytes copies a body two and a half times.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (*bytes.Buffer, error) {
	buf := bodies.Get().(*bytes.Buffer)
	buf.Reset()
	// bytes.MinRead of spare room lets ReadFrom see EOF without growing.
	buf.Grow(int(min(max(r.ContentLength, 0), bodyPresize)) + bytes.MinRead)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf, err
}

// releaseBody returns a buffer to the pool, unless one large request
// would then stay allocated for as long as small ones keep it in use.
func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= bodyPresize {
		bodies.Put(buf)
	}
}

// admitTensor validates a request tensor against the serving item shape
// and normalizes it to an explicit batch axis. The tensor takes over
// tj.Data, which the decoder allocated for this request alone.
func (s *Server) admitTensor(tj TensorJSON) (*tensor.Tensor, int, error) {
	item := s.cfg.ItemDims
	var dims []int
	switch {
	case slices.Equal(tj.Dims, item):
		dims = append([]int{1}, item...)
	case len(tj.Dims) > 0 && tj.Dims[0] >= 1 && slices.Equal(tj.Dims[1:], item):
		dims = append([]int(nil), tj.Dims...)
	default:
		return nil, 0, fmt.Errorf("input dims %v do not match item shape %v (with optional leading batch axis)", tj.Dims, item)
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	if len(tj.Data) != n {
		return nil, 0, fmt.Errorf("input carries %d values, dims %v need %d", len(tj.Data), tj.Dims, n)
	}
	return tensor.FromSlice(tj.Data, dims...), dims[0], nil
}
