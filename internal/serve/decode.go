package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// maxNesting is encoding/json's bound on open arrays and objects.
const maxNesting = 10000

// errResize restarts a decode without pre-sizing (see decodeInferRequest).
var errResize = errors.New("serve: data decoded twice")

// UnmarshalJSON decodes through decodeInferRequest, so json.Unmarshal and
// the handler share one decoder.
func (r *InferRequest) UnmarshalJSON(b []byte) error {
	return decodeInferRequest(b, r)
}

// decodeInferRequest scans a POST /v1/infer body once, validating as it
// goes and writing numbers straight into req's slices. It accepts exactly
// the bodies encoding/json accepts for the InferRequest struct and leaves
// the same values behind — unknown keys skipped, keys matched exactly and
// then case-insensitively, a duplicate key decoded over the first, null a
// no-op (nil for dims and data), numbers through strconv so every float is
// the float encoding/json would store — which FuzzInferRequestDecode holds
// it to. Two things it does differently: it stops at the first value of
// the wrong type, where encoding/json reads on to report it at the end,
// and when dims precede data it allocates data once at the size they
// announce (never more than the bytes left could fill) instead of growing
// it.
//
// That one allocation is visible in a single corner: encoding/json decodes
// an array over the previous value of its slice, and a null element keeps
// whatever the backing array held there. A body that names data twice
// could thus tell a pre-sized array from a grown one, so the second data
// key starts the decode over without pre-sizing.
func decodeInferRequest(body []byte, req *InferRequest) error {
	// Only a tensor that starts empty is pre-sized: the restart can then
	// put req back exactly as it was.
	start := *req
	d := bodyScanner{b: body, grow: start.Input.Dims != nil || start.Input.Data != nil}
	err := d.request(req)
	if err == errResize {
		*req = start
		d = bodyScanner{b: body, grow: true}
		err = d.request(req)
	}
	return err
}

// bodyScanner is a cursor over a request body.
type bodyScanner struct {
	b []byte
	i int
	// grow forbids pre-sizing data; sized records that it happened.
	grow, sized bool
}

func (d *bodyScanner) errf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

// unexpected is the error for the byte at the cursor.
func (d *bodyScanner) unexpected(want string) error {
	if d.i >= len(d.b) {
		return d.errf("unexpected end of JSON input, want %s", want)
	}
	return d.errf("invalid character %q, want %s", d.b[d.i], want)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *bodyScanner) peek() byte {
	for d.i < len(d.b) {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return c
		}
	}
	return 0
}

// literal consumes word if the input continues with it. What may follow a
// literal is for the caller's next peek to judge.
func (d *bodyScanner) literal(word string) bool {
	if !bytes.HasPrefix(d.b[d.i:], []byte(word)) {
		return false
	}
	d.i += len(word)
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digitsEnd returns the index after the digits that start at b[i].
func digitsEnd(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// number consumes one JSON number literal and returns its bytes.
func (d *bodyScanner) number() ([]byte, error) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	end := i + 1 // a leading zero stands alone
	if i >= len(b) || b[i] != '0' {
		end = digitsEnd(b, i)
	}
	if end > i && end < len(b) && b[end] == '.' {
		i = end + 1
		end = digitsEnd(b, i)
	}
	if end > i && end < len(b) && b[end]|0x20 == 'e' {
		i = end + 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		end = digitsEnd(b, i)
	}
	if end == i {
		d.i = i
		return nil, d.unexpected("a digit")
	}
	num := b[d.i:end]
	d.i = end
	return num, nil
}

// str consumes one JSON string and returns it with its quotes. Bytes
// that are not UTF-8 pass, as they do in encoding/json.
func (d *bodyScanner) str() ([]byte, error) {
	start := d.i
	d.i++ // the opening quote
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start:d.i], nil
		case c < 0x20:
			return nil, d.errf("control character in string")
		case c != '\\':
			d.i++
		default:
			d.i++
			if d.i >= len(d.b) {
				return nil, d.unexpected("an escape")
			}
			switch d.b[d.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i++
			case 'u':
				d.i++
				for n := 0; n < 4; n, d.i = n+1, d.i+1 {
					if d.i >= len(d.b) || !isHex(d.b[d.i]) {
						return nil, d.unexpected("a hexadecimal digit")
					}
				}
			default:
				return nil, d.unexpected("an escape")
			}
		}
	}
	return nil, d.unexpected("the end of a string")
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c|0x20 && c|0x20 <= 'f'
}

// matchKey returns the index in names of the field an object key selects
// under encoding/json's rules — the exact name, else the unquoted key
// under Unicode case folding — or -1 for a key to skip.
func matchKey(quoted []byte, names ...string) int {
	raw := quoted[1 : len(quoted)-1]
	for i, name := range names {
		if string(raw) == name {
			return i
		}
	}
	var key string
	if json.Unmarshal(quoted, &key) != nil {
		return -1
	}
	for i, name := range names {
		if strings.EqualFold(key, name) {
			return i
		}
	}
	return -1
}

// open consumes the opening byte of a container that will be the depth-th
// one open.
func (d *bodyScanner) open(depth int) error {
	if depth > maxNesting {
		return d.errf("exceeded max depth")
	}
	d.i++
	return nil
}

// array walks the array at the cursor, calling elem at each element.
func (d *bodyScanner) array(depth int, elem func() error) error {
	if err := d.open(depth); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.i++
		return nil
	}
	for {
		d.peek()
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			return nil
		default:
			return d.unexpected("',' or ']'")
		}
	}
}

// object walks the object at the cursor, calling field with each quoted
// key and the cursor on the key's value.
func (d *bodyScanner) object(depth int, field func(key []byte) error) error {
	if err := d.open(depth); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.unexpected("an object key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.unexpected("':'")
		}
		d.i++
		d.peek()
		if err := field(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return d.unexpected("',' or '}'")
		}
	}
}

// skip validates and steps over one value of any kind, with depth
// containers open around it.
func (d *bodyScanner) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(depth+1, func([]byte) error { return d.skip(depth + 1) })
	case c == '[':
		return d.array(depth+1, func() error { return d.skip(depth + 1) })
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	case d.literal("null") || d.literal("true") || d.literal("false"):
		return nil
	}
	return d.unexpected("a value")
}

// request decodes the whole body: one object, or null, and nothing after.
func (d *bodyScanner) request(req *InferRequest) error {
	switch {
	case d.peek() == '{':
		err := d.object(1, func(key []byte) (err error) {
			switch matchKey(key, "input", "deadline_ms") {
			case 0:
				return d.tensor(&req.Input)
			case 1:
				if !d.literal("null") {
					req.DeadlineMs, err = d.float(64)
				}
				return err
			}
			return d.skip(1)
		})
		if err != nil {
			return err
		}
	case !d.literal("null"):
		return d.unexpected("an object")
	}
	if d.peek(); d.i < len(d.b) {
		return d.errf("invalid character %q after the request", d.b[d.i])
	}
	return nil
}

// tensor decodes the value of "input" into t.
func (d *bodyScanner) tensor(t *TensorJSON) error {
	if d.literal("null") {
		return nil
	}
	if d.peek() != '{' {
		return d.unexpected("an object")
	}
	return d.object(2, func(key []byte) (err error) {
		switch matchKey(key, "dims", "data") {
		case 0:
			t.Dims, err = decodeArray(d, t.Dims, 0, func() (int, error) {
				num, err := d.number()
				if err != nil {
					return 0, err
				}
				n, err := strconv.ParseInt(string(num), 10, 0)
				if err != nil {
					return 0, d.errf("%s is not an int", num)
				}
				return int(n), nil
			})
		case 1:
			if d.sized {
				return errResize
			}
			size := 0
			if !d.grow && t.Data == nil {
				size = elemsWithin(t.Dims, (len(d.b)-d.i)/2)
				d.sized = size > 0
			}
			t.Data, err = decodeArray(d, t.Data, size, func() (float32, error) {
				f, err := d.float(32)
				return float32(f), err
			})
		default:
			err = d.skip(2)
		}
		return err
	})
}

// elemsWithin is the element count dims announce, or limit when it is
// greater (an array has at most one element per two bytes of input), or 0
// when they announce none.
func elemsWithin(dims []int, limit int) int {
	if len(dims) == 0 {
		return 0
	}
	n := 1
	for _, dim := range dims {
		if dim < 1 {
			return 0
		}
		if n > limit/dim {
			return limit
		}
		n *= dim
	}
	return n
}

// decodeArray decodes the array of numbers (or null) at the cursor over s
// the way encoding/json decodes into a slice: element by element in place,
// growing as append does, a null element leaving its slot as it was, the
// result cut to the elements read. A nil s starts with room for size.
func decodeArray[T int | float32](d *bodyScanner, s []T, size int, number func() (T, error)) ([]T, error) {
	if d.literal("null") {
		return nil, nil
	}
	if d.peek() != '[' {
		return nil, d.unexpected("an array")
	}
	if size > 0 {
		s = make([]T, 0, size)
	}
	i := 0
	err := d.array(3, func() error {
		// len(s) >= i here, so a full slice has exactly i elements.
		if i == cap(s) {
			var zero T
			s = append(s, zero)
		} else if i >= len(s) {
			s = s[:i+1]
		}
		i++
		if d.literal("null") {
			return nil
		}
		v, err := number()
		s[i-1] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	if i == 0 {
		return []T{}, nil
	}
	return s[:i], nil
}
