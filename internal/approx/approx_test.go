package approx

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensorops"
)

func TestKnobCountsMatchPaper(t *testing.T) {
	// §2.3: 63 knobs per convolution (with PROMISE), 8 per reduction,
	// 2 for other ops. Development-time (hardware-independent) conv space
	// is 56 = 9*2 + 18*2 + 2.
	if got := len(KnobsFor(OpConv, true)); got != 63 {
		t.Errorf("conv knobs with hardware = %d, want 63", got)
	}
	if got := len(KnobsFor(OpConv, false)); got != 56 {
		t.Errorf("conv knobs hardware-independent = %d, want 56", got)
	}
	if got := len(KnobsFor(OpReduce, false)); got != 8 {
		t.Errorf("reduce knobs = %d, want 8", got)
	}
	if got := len(KnobsFor(OpOther, false)); got != 2 {
		t.Errorf("other knobs = %d, want 2", got)
	}
	if got := len(KnobsFor(OpMatMul, true)); got != 9 {
		t.Errorf("matmul knobs with hardware = %d, want 9 (2 + 7 PROMISE)", got)
	}
}

func TestKnobIDsUniqueAndResolvable(t *testing.T) {
	seen := make(map[KnobID]bool)
	for _, class := range []OpClass{OpConv, OpMatMul, OpReduce, OpOther} {
		for _, id := range KnobsFor(class, true) {
			k, ok := Lookup(id)
			if !ok {
				t.Fatalf("knob %d in set but not in registry", id)
			}
			if k.ID != id {
				t.Fatalf("knob %d has mismatched ID field %d", id, k.ID)
			}
			seen[id] = true
		}
	}
	if !seen[KnobFP32] || !seen[KnobFP16] {
		t.Error("baseline knobs missing from sets")
	}
}

func TestBaselineKnobIsZero(t *testing.T) {
	// §2.1: "A zero value denotes no approximation."
	k := MustLookup(0)
	if !k.IsBaseline() || k.Kind != KindBaseline {
		t.Fatalf("knob 0 = %+v, want FP32 baseline", k)
	}
}

func TestKnobConstructors(t *testing.T) {
	k := MustLookup(SamplingKnob(3, 2, tensorops.FP16))
	if k.Kind != KindSampling || k.Stride != 3 || k.Offset != 2 || k.Prec != tensorops.FP16 {
		t.Fatalf("SamplingKnob resolved to %+v", k)
	}
	p := MustLookup(PerforationKnob(tensorops.PerfCols, 4, 1, tensorops.FP32))
	if p.Kind != KindPerforation || p.Dir != tensorops.PerfCols || p.Stride != 4 || p.Offset != 1 {
		t.Fatalf("PerforationKnob resolved to %+v", p)
	}
	r := MustLookup(ReduceSamplingKnob(1, tensorops.FP32))
	if r.Kind != KindReduceSampling || r.RatioNum != 2 || r.RatioDen != 5 {
		t.Fatalf("ReduceSamplingKnob(1) resolved to %+v (want 40%% = 2/5)", r)
	}
	pr := MustLookup(PromiseKnob(5))
	if pr.Kind != KindPromise || pr.Level != 5 {
		t.Fatalf("PromiseKnob(5) resolved to %+v", pr)
	}
}

func TestPromiseKnobRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PromiseKnob(8) should panic")
		}
	}()
	PromiseKnob(8)
}

func TestHardwareIndependence(t *testing.T) {
	for _, id := range KnobsFor(OpConv, true) {
		k := MustLookup(id)
		wantHWIndep := k.Kind != KindPromise
		if k.HardwareIndependent() != wantHWIndep {
			t.Errorf("knob %s: HardwareIndependent = %v", k.Name(), k.HardwareIndependent())
		}
	}
}

func TestCostFactorsPaperExample(t *testing.T) {
	// §3.4: FP16 50% filter sampling has Rm = 4 and Rc = 2.
	rc, rm := CostFactors(SamplingKnob(2, 0, tensorops.FP16))
	if rc != 2 || rm != 4 {
		t.Fatalf("FP16 samp-50%%: Rc=%v Rm=%v, want 2 and 4", rc, rm)
	}
	rc, rm = CostFactors(KnobFP32)
	if rc != 1 || rm != 1 {
		t.Fatalf("baseline: Rc=%v Rm=%v, want 1 and 1", rc, rm)
	}
	rc, rm = CostFactors(KnobFP16)
	if rc != 1 || rm != 2 {
		t.Fatalf("fp16: Rc=%v Rm=%v, want 1 and 2", rc, rm)
	}
}

// Property: all cost factors are >= 1 (approximations never add work) and
// more aggressive strides never reduce the factor within a family.
func TestCostFactorsMonotone(t *testing.T) {
	for _, id := range KnobsFor(OpConv, true) {
		rc, rm := CostFactors(id)
		if rc < 1 || rm < 1 {
			t.Errorf("knob %d: factors below 1: Rc=%v Rm=%v", id, rc, rm)
		}
	}
	// stride 2 (skip 1/2) must save more than stride 4 (skip 1/4)
	rc2, _ := CostFactors(SamplingKnob(2, 0, tensorops.FP32))
	rc4, _ := CostFactors(SamplingKnob(4, 0, tensorops.FP32))
	if rc2 <= rc4 {
		t.Errorf("samp-50%% Rc (%v) should exceed samp-25%% Rc (%v)", rc2, rc4)
	}
}

func TestSearchSpaceSize(t *testing.T) {
	// 5 convs + 1 matmul ≈ AlexNet: 56^5 * 2 ≈ 1.1e9 (paper reports 5e8
	// for its op mix; order of magnitude is what matters).
	classes := []OpClass{OpConv, OpConv, OpConv, OpConv, OpConv, OpMatMul}
	size := SearchSpaceSize(classes, false)
	if size < 1e8 || size > 1e10 {
		t.Errorf("search space = %g, want ~1e9", size)
	}
	if s2 := SearchSpaceSize(classes, true); s2 <= size {
		t.Error("hardware knobs must enlarge the space")
	}
}

func TestConfigBasics(t *testing.T) {
	c := Config{0: KnobFP32, 1: KnobFP32, 2: KnobFP32}
	if c.Knob(0) != KnobFP32 || c.Knob(99) != KnobFP32 {
		t.Fatal("baseline/default knob should be FP32")
	}
	c[1] = KnobFP16
	d := c.Clone()
	d[1] = KnobFP32
	if c.Knob(1) != KnobFP16 {
		t.Fatal("Clone not deep")
	}
	if c.Equal(d, 3) {
		t.Fatal("configs should differ")
	}
	if !c.Equal(c.Clone(), 3) {
		t.Fatal("config should equal its clone")
	}
}

func TestConfigKeyDistinguishes(t *testing.T) {
	a := Config{0: KnobFP16, 1: KnobFP32}
	b := Config{0: KnobFP32, 1: KnobFP16}
	if a.Key(2) == b.Key(2) {
		t.Fatal("distinct configs share a key")
	}
	if a.Key(2) != a.Clone().Key(2) {
		t.Fatal("key not canonical")
	}
}

func TestConfigGroupCounts(t *testing.T) {
	c := Config{
		0: KnobFP16,
		1: KnobFP16,
		2: SamplingKnob(2, 0, tensorops.FP32),
		3: SamplingKnob(2, 1, tensorops.FP16), // same group, different offset/prec
		4: PerforationKnob(tensorops.PerfRows, 3, 0, tensorops.FP32),
		5: KnobFP32, // baseline not counted
	}
	got := c.GroupCounts()
	if got["FP16"] != 2 || got["samp-50%"] != 2 || got["perf-33%"] != 1 {
		t.Fatalf("GroupCounts = %v", got)
	}
	s := c.FormatGroupCounts()
	if s == "" || s == "baseline" {
		t.Fatalf("FormatGroupCounts = %q", s)
	}
}

// Property: JSON round-trip preserves any configuration over valid knobs.
func TestConfigJSONRoundTrip(t *testing.T) {
	knobs := KnobsFor(OpConv, true)
	f := func(picks []uint8) bool {
		c := make(Config, len(picks))
		for i, p := range picks {
			c[i] = knobs[int(p)%len(knobs)]
		}
		data, err := json.Marshal(c)
		if err != nil {
			return false
		}
		var back Config
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return back.Equal(c, len(picks))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConfigJSONRejectsUnknownKnob(t *testing.T) {
	var c Config
	if err := json.Unmarshal([]byte(`{"0": 999}`), &c); err == nil {
		t.Fatal("unknown knob id must fail to deserialize")
	}
}

func TestKnobNames(t *testing.T) {
	cases := []struct {
		id   KnobID
		want string
	}{
		{KnobFP32, "fp32"},
		{KnobFP16, "fp16"},
		{SamplingKnob(2, 0, tensorops.FP32), "samp-50%(o0)"},
		{PromiseKnob(3), "promise-P3"},
	}
	for _, c := range cases {
		if got := MustLookup(c.id).Name(); got != c.want {
			t.Errorf("Name(%d) = %q, want %q", c.id, got, c.want)
		}
	}
}

func TestSearchSpaceNoOverflowForDeepNets(t *testing.T) {
	classes := make([]OpClass, 60)
	for i := range classes {
		classes[i] = OpConv
	}
	size := SearchSpaceSize(classes, false)
	if !(size > 1e90) && !math.IsInf(size, 1) {
		t.Errorf("ResNet-50-scale space = %g, want ≥1e90 (paper: 7e91)", size)
	}
}
