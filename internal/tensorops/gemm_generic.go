//go:build !amd64

package tensorops

// Platforms without an assembly implementation run the portable Go
// micro-kernels only.

func bestTier() kernelTier { return tierPortable }

func microTile4(a0, a1, a2, a3, panel []float32, c0, c1, c2, c3 []float32) {
	microKernel4(a0, a1, a2, a3, panel, c0, c1, c2, c3)
}

// panelPairsAVX is never reached: gemmTier is tierPortable here.
func panelPairsAVX(a, c, panels []float32, i0, k, ldc, j0, np int) int { return 0 }

// packRunAVX is never reached either: packRun's Go loop runs.
func packRunAVX(dst, src *float32, offs *int32, kc, run int) {}
