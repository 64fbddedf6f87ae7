package approxtuner

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const (
	// DESIGN.md describes the system as it is, one section per subsystem.
	// It reached 77.5 KB by telling subsystems in the order they were
	// built; 56 KiB is its size once static analysis came down to its
	// rules table, the kernel engine to one section and the metrics to one
	// exposition, so a new section has to pay for itself by replacing
	// history somewhere else.
	designMaxBytes = 56 << 10

	// A CHANGES.md entry tells the next session what is done, not how it
	// was measured (that is EXPERIMENTS.md's job): PRs 17–20 wrote 2–4 KB
	// each and the file reached 47 KB. Five lines of at most 200 bytes is
	// what such a note needs; earlier entries are left as they are.
	changesFirstCapped = 21
	changesMaxLines    = 5
	changesMaxLineLen  = 200
)

var changesEntryRe = regexp.MustCompile(`^- PR (\d+)`)

// TestDocsStayWithinTheirCaps enforces the two ceilings above.
func TestDocsStayWithinTheirCaps(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(design) > designMaxBytes {
		t.Errorf("DESIGN.md is %d bytes, over its %d-byte cap: rewrite a section as current state instead of appending", len(design), designMaxBytes)
	}

	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	pr, lines := 0, 0
	check := func() {
		if pr >= changesFirstCapped && lines > changesMaxLines {
			t.Errorf("CHANGES.md entry for PR %d runs to %d lines, cap %d: measurements belong in EXPERIMENTS.md", pr, lines, changesMaxLines)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(string(changes), "\n"), "\n") {
		if m := changesEntryRe.FindStringSubmatch(line); m != nil {
			check()
			pr, _ = strconv.Atoi(m[1])
			lines = 0
		}
		lines++
		if pr >= changesFirstCapped && len(line) > changesMaxLineLen {
			t.Errorf("CHANGES.md entry for PR %d has a %d-byte line, cap %d", pr, len(line), changesMaxLineLen)
		}
	}
	check()
}

// docSymbolRe finds `pkg.Name` inside a backticked span: pkg is a lower-case
// identifier not glued to a path or another selector, Name is exported (a
// metric name such as `serve.batch_items` is lower-case throughout), and a
// trailing `*` makes Name a prefix.
var docSymbolRe = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Z]\w*)(\*?)`)

// TestDocsNameDeclaredSymbols holds README.md and DESIGN.md to the code: a
// backticked `pkg.Name` whose pkg is a directory under internal/ or cmd/
// must name a top-level declaration of that package, so a deleted or
// renamed symbol cannot live on in the docs.
func TestDocsNameDeclaredSymbols(t *testing.T) {
	decls := map[string]map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		dirs, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			if d.IsDir() {
				decls[d.Name()] = packageDecls(t, filepath.Join(root, d.Name()))
			}
		}
	}
	span := regexp.MustCompile("`[^`\n]+`")
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, s := range span.FindAllString(line, -1) {
				for _, m := range docSymbolRe.FindAllStringSubmatch(s, -1) {
					names, ok := decls[m[1]]
					if !ok {
						continue
					}
					checked++
					if declared(names, m[2], m[3] == "*") {
						continue
					}
					t.Errorf("%s:%d: %s names %s.%s%s, which package %s does not declare", doc, i+1, s, m[1], m[2], m[3], m[1])
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no backticked pkg.Name found in README.md or DESIGN.md: the pattern no longer matches the docs")
	}
}

// packageDecls returns the names of the top-level declarations of the
// non-test files in dir, methods included.
func packageDecls(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// declared reports whether name is among names, or, as a prefix, begins one.
func declared(names map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return names[name]
	}
	for n := range names {
		if strings.HasPrefix(n, name) {
			return true
		}
	}
	return false
}
