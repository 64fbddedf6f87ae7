//go:build !amd64

package tensorops

// Platforms without an assembly implementation run the portable Go
// kernels only.

func bestTier() kernelTier { return tierPortable }

// gemmPanelsAVX and gemmRowAVX are never reached: gemmTier is tierPortable
// here.
func gemmPanelsAVX(a, c, panels []float32, i0, k, ldc, j0, np int) {}

func gemmRowAVX(arow, crow, panels []float32, k, np int) {}

// packRunAVX and packQuadAVX are never reached either: the Go loops run.
func packRunAVX(dst, src *float32, offs *int32, kc, run int) {}

func packQuadAVX(dst, src *float32, offs *int32, kc int, win *[4]int32, ctrl *[gemmNR]int32) {}
