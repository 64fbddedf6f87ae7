package approx

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Config maps each tensor operation (by its index in the program's
// dataflow graph) to an approximation knob (§2.1: Config : op → Int).
// Operations absent from the map run exactly (knob 0).
type Config map[int]KnobID

// Knob returns the knob for op i (FP32 when unset).
func (c Config) Knob(i int) KnobID {
	if k, ok := c[i]; ok {
		return k
	}
	return KnobFP32
}

// Clone returns a deep copy.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Equal reports whether two configurations assign the same knob to every
// op of programs with n operations.
func (c Config) Equal(o Config, n int) bool {
	for i := 0; i < n; i++ {
		if c.Knob(i) != o.Knob(i) {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for map/dedup use over n ops.
func (c Config) Key(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,", c.Knob(i))
	}
	return b.String()
}

// GroupCounts tallies, per Table 3 of the paper, how many operations use
// each knob family (FP16, samp-50%, perf-33%, P4, ...). Baseline FP32
// entries are omitted.
func (c Config) GroupCounts() map[string]int {
	out := make(map[string]int)
	for _, id := range c {
		k := MustLookup(id)
		if k.IsBaseline() {
			continue
		}
		out[k.Group()]++
	}
	return out
}

// FormatGroupCounts renders GroupCounts in Table 3 style:
// "FP16:13 perf-50%:6 perf-33%:2 samp-25%:1".
func (c Config) FormatGroupCounts() string {
	counts := c.GroupCounts()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, counts[k]))
	}
	if len(parts) == 0 {
		return "baseline"
	}
	return strings.Join(parts, " ")
}

// configJSON is the serialized form: op indices as strings for JSON maps.
type configJSON map[string]KnobID

// MarshalJSON serializes the configuration for shipping inside a tradeoff
// curve.
func (c Config) MarshalJSON() ([]byte, error) {
	m := make(configJSON, len(c))
	for op, k := range c {
		m[fmt.Sprint(op)] = k
	}
	return json.Marshal(m)
}

// UnmarshalJSON restores a shipped configuration, validating knob ids.
func (c *Config) UnmarshalJSON(data []byte) error {
	var m configJSON
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	out := make(Config, len(m))
	for opStr, k := range m {
		var op int
		if _, err := fmt.Sscanf(opStr, "%d", &op); err != nil {
			return fmt.Errorf("approx: bad op index %q: %w", opStr, err)
		}
		if _, ok := Lookup(k); !ok {
			return fmt.Errorf("approx: unknown knob id %d for op %d", k, op)
		}
		out[op] = k
	}
	*c = out
	return nil
}
