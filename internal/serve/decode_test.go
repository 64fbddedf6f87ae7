package serve

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// plainInferRequest is InferRequest as encoding/json sees it without the
// scanner: the same fields and tags and no UnmarshalJSON. It is the
// reference decodeInferRequest is held to.
type plainInferRequest struct {
	Input struct {
		Dims []int     `json:"dims"`
		Data []float32 `json:"data"`
	} `json:"input"`
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
}

// checkDecodeMatchesEncodingJSON decodes body both ways and requires the
// same verdict and, on acceptance, the same values bit for bit.
func checkDecodeMatchesEncodingJSON(t *testing.T, body []byte) {
	t.Helper()
	var want plainInferRequest
	wantErr := json.Unmarshal(body, &want)
	var got InferRequest
	gotErr := decodeInferRequest(body, &got)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("scanner error %v, encoding/json error %v\nbody: %q", gotErr, wantErr, body)
	}
	// Each array element takes two bytes of input, and a slice grown by
	// append at most doubles: neither slice can outgrow the body.
	if cap(got.Input.Data) > len(body) || cap(got.Input.Dims) > len(body) {
		t.Fatalf("cap(data) %d, cap(dims) %d from a %d-byte body", cap(got.Input.Data), cap(got.Input.Dims), len(body))
	}
	if gotErr != nil {
		return
	}
	if math.Float64bits(got.DeadlineMs) != math.Float64bits(want.DeadlineMs) {
		t.Fatalf("deadline_ms %v, encoding/json %v\nbody: %q", got.DeadlineMs, want.DeadlineMs, body)
	}
	if !slices.Equal(got.Input.Dims, want.Input.Dims) || (got.Input.Dims == nil) != (want.Input.Dims == nil) {
		t.Fatalf("dims %v, encoding/json %v\nbody: %q", got.Input.Dims, want.Input.Dims, body)
	}
	if len(got.Input.Data) != len(want.Input.Data) || (got.Input.Data == nil) != (want.Input.Data == nil) {
		t.Fatalf("%d data values (nil: %v), encoding/json %d (nil: %v)\nbody: %q",
			len(got.Input.Data), got.Input.Data == nil, len(want.Input.Data), want.Input.Data == nil, body)
	}
	for i, v := range got.Input.Data {
		if math.Float32bits(v) != math.Float32bits(want.Input.Data[i]) {
			t.Fatalf("data[%d] = %v (%#x), encoding/json %v (%#x)\nbody: %q",
				i, v, math.Float32bits(v), want.Input.Data[i], math.Float32bits(want.Input.Data[i]), body)
		}
	}
	// The Unmarshaler route is the same decoder behind encoding/json's own
	// validation pass.
	var via InferRequest
	if err := json.Unmarshal(body, &via); err != nil {
		t.Fatalf("json.Unmarshal into InferRequest: %v\nbody: %q", err, body)
	}
}

// FuzzInferRequestDecode is the differential fuzzer of the /v1/infer body
// scanner against encoding/json. The committed corpus
// (testdata/fuzz/FuzzInferRequestDecode) holds the shapes of
// TestDecodeInferRequestTable for mutation to start from. Two edges are
// pinned elsewhere because no useful seed reaches them: the nesting limit
// (a 20 KB seed stalls the mutator; TestDecodeInferRequestNesting) and the
// 64 MB body limit, which is the reader's (TestReadBodyLimit).
func FuzzInferRequestDecode(f *testing.F) {
	f.Add(inferBodyFor(2))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeMatchesEncodingJSON(t, body)
	})
}

// TestDecodeInferRequestNesting holds the scanner to encoding/json's
// nesting limit from both sides, under a skipped key and across the
// request's own two levels.
func TestDecodeInferRequestNesting(t *testing.T) {
	nest := func(open, shut string, n int) string { return strings.Repeat(open, n) + "1" + strings.Repeat(shut, n) }
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"arrays to the limit", `{"x":` + nest("[", "]", maxNesting-1) + `}`, true},
		{"arrays past the limit", `{"x":` + nest("[", "]", maxNesting) + `}`, false},
		{"objects to the limit", `{"input":{"x":` + nest(`{"a":`, "}", maxNesting-2) + `}}`, true},
		{"objects past the limit", `{"input":{"x":` + nest(`{"a":`, "}", maxNesting-1) + `}}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var req InferRequest
			if err := decodeInferRequest([]byte(tc.body), &req); (err == nil) != tc.ok {
				t.Errorf("decode error %v, want accepted: %v", err, tc.ok)
			}
			checkDecodeMatchesEncodingJSON(t, []byte(tc.body))
		})
	}
}

// TestShortFloat32MatchesParseFloat holds the two-operation conversion to
// strconv.ParseFloat(·, 32) bit for bit wherever it answers at all: on
// random literals of every digit count and exponent it accepts, and on
// the decimal neighbours of float32 rounding boundaries, where rounding
// twice could differ from rounding once.
func TestShortFloat32MatchesParseFloat(t *testing.T) {
	rng := tensor.NewRNG(77)
	var short, total int
	check := func(lit string) {
		t.Helper()
		total++
		got, ok := shortFloat32([]byte(lit))
		if !ok {
			return
		}
		short++
		want, err := strconv.ParseFloat(lit, 32)
		if err != nil || math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("shortFloat32(%s) = %v (%#x), ParseFloat %v (%#x), %v",
				lit, got, math.Float32bits(got), float32(want), math.Float32bits(float32(want)), err)
		}
	}
	n := 400000
	if testing.Short() {
		n /= 10
	}
	for i := 0; i < n; i++ {
		// A random digit string with a point somewhere and maybe an exponent.
		digits := make([]byte, 1+rng.Intn(17))
		for j := range digits {
			digits[j] = byte('0' + rng.Intn(10))
		}
		if len(digits) > 1 && digits[0] == '0' {
			digits[0] = '1'
		}
		lit := string(digits)
		if p := rng.Intn(len(digits) + 1); p > 0 && p < len(digits) {
			lit = lit[:p] + "." + lit[p:]
		}
		if rng.Intn(2) == 0 {
			lit += "e" + strconv.Itoa(rng.Intn(101)-50)
		}
		if rng.Intn(2) == 0 {
			lit = "-" + lit
		}
		check(lit)

		// The boundary between a random float32 and its successor, at every
		// precision from 1 to 17 digits, and the literals one unit in the
		// last place to either side.
		a := math.Float32frombits(uint32(rng.Intn(0x7f7fffff)))
		mid := (float64(a) + float64(math.Nextafter32(a, math.MaxFloat32))) / 2
		lit = strconv.FormatFloat(mid, 'e', rng.Intn(17), 64)
		check(lit)
		mant, exp, _ := strings.Cut(lit, "e")
		if last := mant[len(mant)-1]; last != '0' && last != '9' {
			check(mant[:len(mant)-1] + string(last-1) + "e" + exp)
			check(mant[:len(mant)-1] + string(last+1) + "e" + exp)
		}
	}
	for _, lit := range []string{"0", "-0", "0.0", "-0e5", "0e-999", "1", "-1", "1e22", "1e23", "1e-22", "123456789012345", "1234567890123456",
		"3.4028235e38", "3.4028236e38", "1.1754944e-38", "1.1754943e-38", "1e-45", "16777217", "16777216.000001", "1.00000006", "0.1", "1e+5", "1E5", "1e0005", "1e10000"} {
		check(lit)
	}
	if short < total/3 {
		t.Errorf("the short conversion answered %d of %d literals; the test is not exercising it", short, total)
	}
}

// TestDecodeInferRequestTable spells out the corners of the contract one
// by one (each is also in the fuzz corpus, where it seeds mutation).
func TestDecodeInferRequestTable(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"empty object", `{}`, true},
		{"null request", ` null `, true},
		{"dims then data", `{"input":{"dims":[2,2],"data":[1,2,3,4]}}`, true},
		{"data then dims", `{"input":{"data":[1,2,3,4],"dims":[2,2]}}`, true},
		{"deadline", `{"deadline_ms":12.5,"input":{"dims":[1],"data":[0]}}`, true},
		{"whitespace everywhere", " {\t\"input\" :\r\n{ \"dims\" : [ 1 , 2 ] , \"data\" : [ 1e0 , -2 ] } } \n", true},
		{"exponents", `{"input":{"data":[1e5,1E-5,1.5e+3,-0.0e-0]}}`, true},
		{"negative zero", `{"input":{"data":[-0,-0.0,0]}}`, true},
		{"subnormal and underflow", `{"input":{"data":[1e-45,1.4e-45,1e-50,-1e-400]}}`, true},
		{"largest float32 and its rounding edge", `{"input":{"data":[3.4028234663852886e38,3.4028235677973366e38]}}`, true},
		{"float32 overflow", `{"input":{"data":[3.4028235677973367e38]}}`, false},
		{"float64 overflow in float32", `{"input":{"data":[1e400]}}`, false},
		{"deadline overflow", `{"deadline_ms":1e400}`, false},
		{"long mantissa", `{"input":{"data":[0.1000000000000000055511151231257827021181583404541015625]}}`, true},
		{"NaN", `{"input":{"data":[NaN]}}`, false},
		{"Infinity", `{"input":{"data":[Infinity]}}`, false},
		{"minus Infinity", `{"input":{"data":[-Infinity]}}`, false},
		{"leading zero", `{"input":{"data":[01]}}`, false},
		{"leading plus", `{"input":{"data":[+1]}}`, false},
		{"bare fraction", `{"input":{"data":[.5]}}`, false},
		{"trailing point", `{"input":{"data":[1.]}}`, false},
		{"hex float", `{"input":{"data":[0x1p-2]}}`, false},
		{"trailing comma in array", `{"input":{"data":[1,]}}`, false},
		{"trailing comma in object", `{"input":{"data":[1]},}`, false},
		{"missing comma", `{"input":{"data":[1 2]}}`, false},
		{"float dim", `{"input":{"dims":[1.0]}}`, false},
		{"exponent dim", `{"input":{"dims":[1e2]}}`, false},
		{"negative zero dim", `{"input":{"dims":[-0]}}`, true},
		{"dim beyond int64", `{"input":{"dims":[9223372036854775808]}}`, false},
		{"string element", `{"input":{"data":["1"]}}`, false},
		{"string for array", `{"input":{"data":"1"}}`, false},
		{"array for tensor", `{"input":[]}`, false},
		{"array request", `[]`, false},
		{"number request", `1`, false},
		{"null tensor", `{"input":null}`, true},
		{"null arrays", `{"input":{"dims":null,"data":null}}`, true},
		{"null deadline", `{"deadline_ms":null}`, true},
		{"null elements", `{"input":{"dims":[null,2],"data":[null,1,null]}}`, true},
		{"null element over an earlier array", `{"input":{"dims":[5,6],"dims":[null]}}`, true},
		{"null elements uncover an earlier data", `{"input":{"dims":[4],"data":[1,2,3,4],"data":[9],"data":[null,null,null]}}`, true},
		{"duplicate keys", `{"input":{"dims":[1],"dims":[2,2],"data":[1],"data":[5,6,7,8]},"deadline_ms":1,"deadline_ms":2}`, true},
		{"duplicate tensors merge", `{"input":{"dims":[1]},"input":{"data":[2]}}`, true},
		{"shorter duplicate", `{"input":{"data":[1,2,3],"data":[]}}`, true},
		{"unknown keys", `{"model":"lenet","input":{"name":"x","dims":[1],"data":[1],"meta":{"a":[1,{"b":null}]}},"trace":true}`, true},
		{"nested garbage", `{"x":[[{"a":[tru]}]]}`, false},
		{"bad escape in skipped string", `{"x":"\q"}`, false},
		{"short unicode escape", `{"x":"\u12"}`, false},
		{"control character in string", "{\"x\":\"a\nb\"}", false},
		{"invalid UTF-8 key", "{\"inp\xffut\":1}", true},
		{"escaped key", `{"\u0069nput":{"d\u0069ms":[3]}}`, true},
		{"upper-case key", `{"INPUT":{"Dims":[3],"DATA":[1]},"Deadline_MS":4}`, true},
		{"folded key", `{"input":{"dimſ":[3]},"deadline_mſ":4}`, true},
		{"upper-case literal", `{"input":Null}`, false},
		{"truncated", `{"input":{"dims":[1],"data":[1`, false},
		{"trailing value", `{} {}`, false},
		{"trailing NUL", "{}\x00", false},
		{"empty", ``, false},
		{"byte order mark", "\xef\xbb\xbf{}", false},
		{"huge dims, small body", `{"input":{"dims":[100000,100000,100000],"data":[1]}}`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var req InferRequest
			if err := decodeInferRequest([]byte(tc.body), &req); (err == nil) != tc.ok {
				t.Errorf("decode error %v, want accepted: %v", err, tc.ok)
			}
			checkDecodeMatchesEncodingJSON(t, []byte(tc.body))
		})
	}
}

// TestDecodeInferRequestSizesDataOnce pins the allocation the scanner is
// for: with dims ahead of data the values land in one slice of exactly the
// announced size, and the tensor admitted from it shares that memory.
func TestDecodeInferRequestSizesDataOnce(t *testing.T) {
	body := inferBodyFor(3)
	var req InferRequest
	if err := decodeInferRequest(body, &req); err != nil {
		t.Fatal(err)
	}
	n := 3 * 8 * 8
	if len(req.Input.Data) != n || cap(req.Input.Data) != n {
		t.Errorf("data len %d cap %d, want %d and %d", len(req.Input.Data), cap(req.Input.Data), n, n)
	}
	s := &Server{cfg: Config{ItemDims: testItemDims}}
	in, items, err := s.admitTensor(req.Input)
	if err != nil || items != 3 {
		t.Fatalf("admitTensor: %d items, %v", items, err)
	}
	if &in.Data()[0] != &req.Input.Data[0] {
		t.Error("the admitted tensor copied the decoded data")
	}
	allocs := testing.AllocsPerRun(20, func() {
		var r InferRequest
		if err := decodeInferRequest(body, &r); err != nil {
			t.Fatal(err)
		}
	})
	// dims grows 1 → 2 → 4, data is one allocation.
	if allocs > 4 {
		t.Errorf("%v allocations per decode, want at most 4", allocs)
	}
}

var sinkData []float32

// BenchmarkInferRequestDecode compares the scanner with the two
// encoding/json routes on a lenet-sized body (784 values).
func BenchmarkInferRequestDecode(b *testing.B) {
	data := make([]float32, 784)
	for i := range data {
		data[i] = float32(math.Sin(float64(i))) * 3
	}
	body, err := json.Marshal(InferRequest{Input: TensorJSON{Dims: []int{1, 28, 28}, Data: data}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scanner", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req InferRequest
			if err := decodeInferRequest(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshaler", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req InferRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req plainInferRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
			sinkData = append([]float32(nil), req.Input.Data...) // the copy admitTensor made
		}
	})
}
