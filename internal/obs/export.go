package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// FileTracer couples a tracer with the JSONL trace file it writes.
type FileTracer struct {
	*Tracer
	f *os.File
	w *bufio.Writer
}

// TraceToFile creates (truncating) a JSONL trace file and a tracer
// writing to it. Call Close when the traced run is over.
func TraceToFile(path string, opts TracerOptions) (*FileTracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	opts.Writer = w
	return &FileTracer{Tracer: NewTracer(opts), f: f, w: w}, nil
}

// Close flushes and closes the trace file, reporting any write error
// encountered while exporting spans.
func (ft *FileTracer) Close() error {
	ferr := ft.w.Flush()
	if cerr := ft.f.Close(); ferr == nil {
		ferr = cerr
	}
	if ferr == nil {
		ferr = ft.Err()
	}
	return ferr
}

// ReadTrace parses a JSONL trace stream back into span records.
func ReadTrace(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// TreeNode is one span with its children, as reconstructed from records.
type TreeNode struct {
	SpanRecord
	Children []*TreeNode
}

// BuildTree links span records into forests by parent ID. Roots (and each
// node's children) are ordered by start time. Spans referencing a missing
// parent become roots, so partial traces still render.
func BuildTree(records []SpanRecord) []*TreeNode {
	nodes := make(map[int64]*TreeNode, len(records))
	for _, r := range records {
		nodes[r.ID] = &TreeNode{SpanRecord: r}
	}
	var roots []*TreeNode
	for _, r := range records {
		n := nodes[r.ID]
		if p, ok := nodes[r.Parent]; ok && r.Parent != r.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortNodes func(ns []*TreeNode)
	sortNodes = func(ns []*TreeNode) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Start < ns[j].Start })
		for _, n := range ns {
			sortNodes(n.Children)
		}
	}
	sortNodes(roots)
	return roots
}

// Walk visits the node and its descendants depth-first.
func (n *TreeNode) Walk(visit func(*TreeNode, int)) { n.walk(visit, 0) }

func (n *TreeNode) walk(visit func(*TreeNode, int), depth int) {
	visit(n, depth)
	for _, c := range n.Children {
		c.walk(visit, depth+1)
	}
}

// Summarize renders span records as an indented human-readable tree with
// durations and attributes — the CLI-facing view of a trace.
func Summarize(records []SpanRecord) string {
	var b strings.Builder
	for _, root := range BuildTree(records) {
		root.Walk(func(n *TreeNode, depth int) {
			fmt.Fprintf(&b, "%s%s  %.3fms", strings.Repeat("  ", depth), n.Name, float64(n.Dur)/1e6)
			if len(n.Attrs) > 0 {
				for _, k := range sortedKeys(n.Attrs) {
					fmt.Fprintf(&b, " %s=%v", k, n.Attrs[k])
				}
			}
			b.WriteString("\n")
		})
	}
	return b.String()
}
