package approxtuner

import (
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestSampleTracePhases guards the committed sample trace
// (results/sample_trace.jsonl, recorded from examples/quickstart with
// -trace): its span tree must contain the three tuning phases in
// dev → install → runtime order, with graph executions (and their
// per-node kernel spans) nested under the phase spans. The tree is linked
// by span ID, so a sample recorded before spans carried one fails.
func TestSampleTracePhases(t *testing.T) {
	f, err := os.Open("results/sample_trace.jsonl")
	if err != nil {
		t.Fatalf("open sample trace: %v", err)
	}
	defer f.Close()
	records, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatalf("parse sample trace: %v", err)
	}
	for i, r := range records {
		if r.SpanID.IsZero() || r.TraceID.IsZero() {
			t.Fatalf("record %d (%s) has no span or trace ID: regenerate the sample with make trace", i+1, r.Name)
		}
	}
	roots := obs.BuildTree(records)

	// Roots are ordered by start time; collect the phase roots.
	var phases []*obs.TreeNode
	for _, r := range roots {
		if strings.HasPrefix(r.Name, "phase:") {
			phases = append(phases, r)
		}
	}
	want := []string{"phase:devtime", "phase:install", "phase:runtime"}
	if len(phases) != len(want) {
		t.Fatalf("got %d phase roots, want %d", len(phases), len(want))
	}
	for i, w := range want {
		if phases[i].Name != w {
			t.Errorf("phase %d = %q, want %q", i, phases[i].Name, w)
		}
	}
	for i := 1; i < len(phases); i++ {
		if phases[i].Start < phases[i-1].Start {
			t.Errorf("%s starts before %s", phases[i].Name, phases[i-1].Name)
		}
	}

	// Graph executions and per-node kernel spans must nest under the
	// development-time phase (the profile/validate steps run the graph).
	var graphs, nodes int
	phases[0].Walk(func(n *obs.TreeNode, depth int) {
		if strings.HasPrefix(n.Name, "graph:") && depth > 0 {
			graphs++
		}
		if strings.HasPrefix(n.Name, "node:") && depth > 1 {
			nodes++
		}
	})
	if graphs == 0 {
		t.Error("no graph execution spans nested under phase:devtime")
	}
	if nodes == 0 {
		t.Error("no per-node kernel spans nested under phase:devtime")
	}

	// The pack-once prepass must be recorded under the development-time
	// phase, before tuning starts executing the graph: the cache is what
	// makes the thousands of candidate executions start warm.
	var packIdx, firstGraphIdx, idx int
	packIdx, firstGraphIdx = -1, -1
	phases[0].Walk(func(n *obs.TreeNode, depth int) {
		if strings.HasPrefix(n.Name, "pack_cache:") && packIdx < 0 {
			packIdx = idx
		}
		if strings.HasPrefix(n.Name, "graph:") && firstGraphIdx < 0 {
			firstGraphIdx = idx
		}
		idx++
	})
	if packIdx < 0 {
		t.Error("no pack_cache span nested under phase:devtime")
	} else if firstGraphIdx >= 0 && packIdx > firstGraphIdx {
		t.Error("pack_cache prepass recorded after the first graph execution")
	}
}
