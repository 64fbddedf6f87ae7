package qos

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestAccuracy(t *testing.T) {
	out := tensor.FromSlice([]float32{
		0.9, 0.1, // pred 0
		0.2, 0.8, // pred 1
		0.6, 0.4, // pred 0
		0.3, 0.7, // pred 1
	}, 4, 2)
	m := Accuracy{Labels: []int{0, 1, 1, 1}}
	if got := m.Score(out); got != 75 {
		t.Errorf("accuracy = %v, want 75", got)
	}
	if m.Name() != "accuracy" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestAccuracyLengthMismatchPanics(t *testing.T) {
	out := tensor.New(2, 3)
	m := Accuracy{Labels: []int{0}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label/prediction mismatch")
		}
	}()
	m.Score(out)
}

func TestPSNRIdenticalIsCapped(t *testing.T) {
	x := tensor.FromSlice([]float32{0.1, 0.9}, 2)
	if got := PSNRValue(x, x.Clone()); got != 100 {
		t.Errorf("identical PSNR = %v, want 100 (cap)", got)
	}
}

func TestPSNRKnownValue(t *testing.T) {
	x := tensor.FromSlice([]float32{0.5, 0.5}, 2)
	y := tensor.FromSlice([]float32{0.6, 0.4}, 2)
	// MSE = 0.01 → PSNR = -10*log10(0.01) = 20 dB.
	if got := PSNRValue(x, y); math.Abs(got-20) > 1e-6 {
		t.Errorf("PSNR = %v, want 20", got)
	}
}

func TestPSNRDecreasesWithError(t *testing.T) {
	gold := tensor.New(100)
	g := tensor.NewRNG(1)
	g.FillUniform(gold, 0, 1)
	small, big := gold.Clone(), gold.Clone()
	noise := tensor.New(100)
	g.FillNormal(noise, 0, 0.01)
	small.Add(noise)
	noise2 := tensor.New(100)
	g.FillNormal(noise2, 0, 0.2)
	big.Add(noise2)
	m := PSNR{Gold: gold}
	if m.Score(small) <= m.Score(big) {
		t.Error("larger error should give lower PSNR")
	}
}

func TestNegMSE(t *testing.T) {
	gold := tensor.FromSlice([]float32{1, 2}, 2)
	m := NegMSE{Gold: gold}
	if got := m.Score(gold.Clone()); got != 0 {
		t.Errorf("exact output: NegMSE = %v, want 0", got)
	}
	off := tensor.FromSlice([]float32{2, 3}, 2)
	if got := m.Score(off); got != -1 {
		t.Errorf("NegMSE = %v, want -1", got)
	}
}
