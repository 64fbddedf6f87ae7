// Package leakcheck fails a test binary that exits holding a pooled
// scratch buffer or an open span. A tuning run executes one program
// thousands of times, so a kernel's buffer that never goes back to the
// pool, or a request span that never ends, grows with every call; every
// test binary that runs kernels or opens spans calls Main from its
// TestMain, so such a leak on a tested path fails `go test`.
package leakcheck

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Check reports the tensor.Scratch buffers not released (or released
// through two copies of one slice) and the spans not ended, process-wide;
// nil when both counts are zero.
func Check() error {
	var errs []error
	if n := tensor.Outstanding(); n > 0 {
		errs = append(errs, fmt.Errorf("%d tensor.Scratch buffer(s) not released", n))
	} else if n < 0 {
		errs = append(errs, fmt.Errorf("%d more tensor.Release calls than buffers handed out (a copy of a slice released twice)", -n))
	}
	if n := obs.OpenSpans(); n != 0 {
		errs = append(errs, fmt.Errorf("%d span(s) not ended", n))
	}
	return errors.Join(errs...)
}

// Main runs the binary's tests, then exits non-zero if they failed or if
// Check reports a leak.
func Main(m *testing.M) {
	code := m.Run()
	if err := Check(); err != nil {
		fmt.Fprintln(os.Stderr, "leakcheck:", err)
		code = max(code, 1)
	}
	os.Exit(code)
}
