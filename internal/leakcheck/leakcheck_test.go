package leakcheck

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/tensor"
)

func TestMain(m *testing.M) { Main(m) }

func TestCheckReportsHeldScratch(t *testing.T) {
	for _, n := range []int{1, 1000, 1<<24 + 1} { // pooled and over the largest class
		buf := tensor.Scratch(n)
		err := Check()
		if err == nil || !strings.Contains(err.Error(), "1 tensor.Scratch buffer(s) not released") {
			t.Errorf("Scratch(%d) held: Check() = %v", n, err)
		}
		tensor.Release(&buf)
		if err := Check(); err != nil {
			t.Errorf("Scratch(%d) released: Check() = %v", n, err)
		}
	}
}

func TestCheckReportsReleaseThroughACopy(t *testing.T) {
	buf := tensor.Scratch(100)
	alias := buf
	tensor.Release(&buf)
	tensor.Release(&alias)
	if err := Check(); err == nil || !strings.Contains(err.Error(), "1 more tensor.Release calls") {
		t.Errorf("one buffer released twice: Check() = %v", err)
	}
	_ = tensor.Scratch(100) // balances the extra release; the buffer stays out of the pool
	if err := Check(); err != nil {
		t.Errorf("count back at zero: Check() = %v", err)
	}
}

func TestCheckReportsOpenSpan(t *testing.T) {
	tr := obs.NewTracer(obs.TracerOptions{IDSeed: 1})
	root := tr.Start("root")
	child := root.Child("child")
	if err := Check(); err == nil || !strings.Contains(err.Error(), "2 span(s) not ended") {
		t.Errorf("two spans open: Check() = %v", err)
	}
	child.End()
	root.End()
	if err := Check(); err != nil {
		t.Errorf("spans ended: Check() = %v", err)
	}
}
