package promise

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestErrorDecreasesWithVoltage(t *testing.T) {
	for l := 1; l < Levels; l++ {
		if ErrorSigma(l) <= ErrorSigma(l+1) {
			t.Errorf("σ(P%d)=%v should exceed σ(P%d)=%v", l, ErrorSigma(l), l+1, ErrorSigma(l+1))
		}
	}
	if ErrorSigma(Levels) <= 0 {
		t.Error("no PROMISE mode is exact (§2.3); σ(P7) must be > 0")
	}
}

func TestEnergyLadderMatchesCitedRange(t *testing.T) {
	if got := EnergyReduction(1); got != 5.5 {
		t.Errorf("P1 energy reduction = %v, want 5.5", got)
	}
	if got := EnergyReduction(7); got != 3.4 {
		t.Errorf("P7 energy reduction = %v, want 3.4", got)
	}
	for l := 1; l < Levels; l++ {
		if EnergyReduction(l) <= EnergyReduction(l+1) {
			t.Errorf("energy reduction must decrease with voltage: P%d vs P%d", l, l+1)
		}
	}
}

func TestThroughputGainInCitedRange(t *testing.T) {
	for l := 1; l <= Levels; l++ {
		g := ThroughputGain(l)
		if g < 1.4 || g > 3.4 {
			t.Errorf("P%d throughput gain %v outside cited 1.4–3.4×", l, g)
		}
	}
}

func TestLevelRangePanics(t *testing.T) {
	for _, bad := range []int{0, 8, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("level %d should panic", bad)
				}
			}()
			ErrorSigma(bad)
		}()
	}
}

func TestPerturbStatistics(t *testing.T) {
	rng := tensor.NewRNG(1)
	x := tensor.New(100000)
	x.Fill(1) // RMS = 1
	y := x.Clone()
	Perturb(y, 4, rng)
	var sum, sq float64
	for i, v := range y.Data() {
		d := float64(v) - 1
		sum += d
		sq += d * d
		_ = i
	}
	n := float64(y.Elems())
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	want := ErrorSigma(4)
	if math.Abs(mean) > 0.005 {
		t.Errorf("noise mean = %v, want ~0", mean)
	}
	if math.Abs(std-want)/want > 0.05 {
		t.Errorf("noise std = %v, want ~%v", std, want)
	}
}

func TestPerturbScalesWithOutputMagnitude(t *testing.T) {
	rng := tensor.NewRNG(2)
	small := tensor.New(10000)
	small.Fill(0.1)
	big := tensor.New(10000)
	big.Fill(10)
	s1, s2 := small.Clone(), big.Clone()
	Perturb(s1, 3, rng)
	Perturb(s2, 3, rng)
	errSmall := tensor.MSE(s1, small)
	errBig := tensor.MSE(s2, big)
	if errBig < errSmall*100 {
		t.Errorf("error should scale with RMS: small %g, big %g", errSmall, errBig)
	}
}

func TestPerturbDeterministic(t *testing.T) {
	a := tensor.New(100)
	a.Fill(2)
	b := a.Clone()
	Perturb(a, 1, tensor.NewRNG(7))
	Perturb(b, 1, tensor.NewRNG(7))
	if !tensor.Equal(a, b, 0) {
		t.Fatal("same seed must give identical noise")
	}
}

func TestPerturbZeroTensorDoesNotNaN(t *testing.T) {
	z := tensor.New(16)
	Perturb(z, 1, tensor.NewRNG(3))
	for _, v := range z.Data() {
		if math.IsNaN(float64(v)) {
			t.Fatal("NaN injected on zero tensor")
		}
	}
}
