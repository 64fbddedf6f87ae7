package tensor

import "repro/internal/cpu"

// quantizeFP16x8 is the F16C kernel in fp16_amd64.s: groups×8 floats from
// src through half precision into dst. groups must be positive.
//
//go:noescape
func quantizeFP16x8(dst, src *float32, groups int)

func quantizeF16C(dst, src []float32) int {
	groups := len(src) / 8
	if groups > 0 {
		quantizeFP16x8(&dst[0], &src[0], groups)
	}
	return groups * 8
}

func init() {
	if cpu.F16C {
		quantizeBulk = quantizeF16C
	}
}
