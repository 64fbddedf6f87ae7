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
	parent   *TreeNode
}

// BuildTree links span records into forests by SpanID/ParentSpanID. Roots
// (and each node's children) are ordered by start time. A span whose
// parent is missing becomes a root, so partial traces still render. Parent
// IDs can come from an untrusted traceparent header and the flight ring
// mixes tracers, so the links are not trusted to form a tree: a span ID
// seen twice is the parent of its children only at its first record, and a
// span whose parent link would close a cycle becomes a root. Every record
// is then one node, and a walk visits each once.
func BuildTree(records []SpanRecord) []*TreeNode {
	nodes := make([]TreeNode, len(records))
	byID := make(map[SpanID]*TreeNode, len(records))
	for i, r := range records {
		nodes[i].SpanRecord = r
		if _, dup := byID[r.SpanID]; !dup && !r.SpanID.IsZero() {
			byID[r.SpanID] = &nodes[i]
		}
	}
	var roots []*TreeNode
	for i := range nodes {
		n := &nodes[i]
		if p := byID[n.ParentSpanID]; p != nil && !p.descendsFrom(n) {
			n.parent = p
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	byStart := func(ns []*TreeNode) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].Start < ns[j].Start })
	}
	byStart(roots)
	for i := range nodes {
		byStart(nodes[i].Children)
	}
	return roots
}

// descendsFrom reports whether n is anc or lies below it in the links made
// so far.
func (n *TreeNode) descendsFrom(anc *TreeNode) bool {
	for ; n != nil; n = n.parent {
		if n == anc {
			return true
		}
	}
	return false
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
