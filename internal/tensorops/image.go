package tensorops

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// The "map"-style tensor operations of the ApproxHPVM op set used by the
// image-processing pipeline (Canny edge detection, §7.6): elementwise
// absolute value, square root and product, plus the two Canny-specific
// stencils — non-maximum suppression along the gradient direction and
// double-threshold hysteresis.

// Abs applies |x| elementwise.
func Abs(x *tensor.Tensor, prec Precision) *tensor.Tensor {
	out := x.ClonePooled()
	d := out.Data()
	for i, v := range d {
		if v < 0 {
			d[i] = -v
		}
	}
	if prec == FP16 {
		out.ToFP16()
	}
	return out
}

// Sqrt applies √max(x,0) elementwise.
func Sqrt(x *tensor.Tensor, prec Precision) *tensor.Tensor {
	out := x.ClonePooled()
	d := out.Data()
	for i, v := range d {
		if v <= 0 {
			d[i] = 0
		} else {
			d[i] = float32(math.Sqrt(float64(v)))
		}
	}
	if prec == FP16 {
		out.ToFP16()
	}
	return out
}

// Mul returns the elementwise product of two equal-shaped tensors.
func Mul(a, b *tensor.Tensor, prec Precision) *tensor.Tensor {
	if a.Elems() != b.Elems() {
		panicShape("Mul", "size mismatch %d vs %d", a.Elems(), b.Elems())
	}
	out := tensor.NewPooledLike(a) // every element stored below
	d, ad, bd := out.Data(), a.Data(), b.Data()
	for i := range d {
		d[i] = ad[i] * bd[i]
	}
	if prec == FP16 {
		out.ToFP16()
	}
	return out
}

// NonMaxSuppress keeps a magnitude pixel only if it is a local maximum
// along its quantized gradient direction (the NMS stage of Canny). mag,
// gx, gy are (N,1,H,W).
func NonMaxSuppress(mag, gx, gy *tensor.Tensor, prec Precision) *tensor.Tensor {
	if mag.Rank() != 4 {
		panicShape("NMS", "need 4-D magnitude, got %v", mag.Shape())
	}
	n, c, h, w := mag.Dim(0), mag.Dim(1), mag.Dim(2), mag.Dim(3)
	out := tensor.NewPooled(n, c, h, w)
	md, xd, yd, od := mag.Data(), gx.Data(), gy.Data(), out.Data()
	parallel.For(n*c, func(nc int) {
		base := nc * h * w
		at := func(y, x int) float32 {
			if y < 0 || y >= h || x < 0 || x >= w {
				return 0
			}
			return md[base+y*w+x]
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				i := base + y*w + x
				m := md[i]
				od[i] = 0
				// exactly-zero magnitude pixels have no gradient to suppress
				if m == 0 {
					continue
				}
				// Quantize the gradient direction to 0°, 45°, 90° or 135°.
				ang := math.Atan2(float64(yd[i]), float64(xd[i])) * 180 / math.Pi
				if ang < 0 {
					ang += 180
				}
				var a, b float32
				switch {
				case ang < 22.5 || ang >= 157.5: // horizontal gradient
					a, b = at(y, x-1), at(y, x+1)
				case ang < 67.5: // 45°
					a, b = at(y-1, x+1), at(y+1, x-1)
				case ang < 112.5: // vertical
					a, b = at(y-1, x), at(y+1, x)
				default: // 135°
					a, b = at(y-1, x-1), at(y+1, x+1)
				}
				if m >= a && m >= b {
					od[i] = m
				}
			}
		}
	})
	if prec == FP16 {
		out.ToFP16()
	}
	return out
}

// Hysteresis applies Canny's double-threshold edge linking in a single
// pass: pixels above hi are strong edges (1); pixels in (lo, hi] become
// edges only if an 8-neighbor is strong.
func Hysteresis(mag *tensor.Tensor, lo, hi float32, prec Precision) *tensor.Tensor {
	if mag.Rank() != 4 {
		panicShape("Hysteresis", "need 4-D magnitude, got %v", mag.Shape())
	}
	n, c, h, w := mag.Dim(0), mag.Dim(1), mag.Dim(2), mag.Dim(3)
	out := tensor.NewPooled(n, c, h, w)
	md, od := mag.Data(), out.Data()
	parallel.For(n*c, func(nc int) {
		base := nc * h * w
		strong := func(y, x int) bool {
			if y < 0 || y >= h || x < 0 || x >= w {
				return false
			}
			return md[base+y*w+x] > hi
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				i := base + y*w + x
				m := md[i]
				od[i] = 0
				switch {
				case m > hi:
					od[i] = 1
				case m > lo:
					// the output is a 0/1 edge mask; zero is the unvisited sentinel
					for dy := -1; dy <= 1 && od[i] == 0; dy++ {
						for dx := -1; dx <= 1; dx++ {
							if (dy != 0 || dx != 0) && strong(y+dy, x+dx) {
								od[i] = 1
								break
							}
						}
					}
				}
			}
		}
	})
	if prec == FP16 {
		out.ToFP16()
	}
	return out
}
