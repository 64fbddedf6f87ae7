package serve

import (
	"math"
	"strconv"
)

// float decodes the number at the cursor as encoding/json does: the
// nearest float of the given size, an error where that is infinite.
func (d *bodyScanner) float(bits int) (float64, error) {
	num, err := d.number()
	if err != nil {
		return 0, err
	}
	if bits == 32 {
		if f, ok := shortFloat32(num); ok {
			return float64(f), nil
		}
	}
	f, err := strconv.ParseFloat(string(num), bits)
	if err != nil {
		return 0, d.errf("%s overflows float%d", num, bits)
	}
	return f, nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// shortFloat32 converts a number literal that number has validated to the
// float32 strconv.ParseFloat(·, 32) returns, for the literals where two
// float64 operations provably get there, and reports false for the rest
// (ParseFloat is a third of a request's decode time, nearly all of it
// re-reading digits this scanner has just read).
//
// With at most 15 digits m and a power of ten up to 22 both operands are
// exact float64s, so f = m × 10^e or m ÷ 10^-e is the true value x rounded
// once, to float64. Rounding f again to float32 gives the float32 nearest
// x unless a float32 rounding boundary lies between x and f; boundaries
// are float64s and f is the float64 nearest x, so that boundary can only
// be f itself — the one bit pattern sent back to ParseFloat. Results
// outside float32's normal range go back too, where the spacing differs.
func shortFloat32(num []byte) (float32, bool) {
	i := 0
	neg := num[0] == '-'
	if neg {
		i = 1
	}
	var m uint64
	digits := -i
	for ; i < len(num) && isDigit(num[i]); i++ {
		m = m*10 + uint64(num[i]-'0')
	}
	digits += i
	exp := 0
	if i < len(num) && num[i] == '.' {
		point := i
		for i++; i < len(num) && isDigit(num[i]); i++ {
			m = m*10 + uint64(num[i]-'0')
		}
		exp = point + 1 - i
		digits -= exp
	}
	if digits > 15 {
		return 0, false
	}
	if i < len(num) { // the exponent: e, a sign or not, digits
		i++
		eneg := num[i] == '-'
		if eneg || num[i] == '+' {
			i++
		}
		if len(num)-i > 3 {
			return 0, false
		}
		e := 0
		for ; i < len(num); i++ {
			e = e*10 + int(num[i]-'0')
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	f := float64(m)
	switch {
	case m == 0:
	case exp < -22 || exp > 22:
		return 0, false
	default:
		if exp < 0 {
			f /= pow10[-exp]
		} else {
			f *= pow10[exp]
		}
		if f < 0x1p-126 || f > math.MaxFloat32 || math.Float64bits(f)&(1<<29-1) == 1<<28 {
			return 0, false
		}
	}
	if neg {
		f = -f
	}
	return float32(f), true
}
