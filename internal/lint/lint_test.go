package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
)

var (
	sharedOnce   sync.Once
	sharedLoader *Loader
	sharedErr    error
)

// testLoader is the one Loader of this test binary. A Loader caches every
// package it imports, so the standard library is type-checked from source
// once here rather than once per load.
func testLoader(t *testing.T) *Loader {
	t.Helper()
	sharedOnce.Do(func() { sharedLoader, sharedErr = NewLoader(".") })
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedLoader
}

// loadFixture loads one testdata/src fixture directory as an analysis unit.
func loadFixture(t *testing.T, rel string) []*Package {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", filepath.FromSlash(rel)))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := testLoader(t).LoadDir(dir)
	if err != nil {
		t.Fatalf("load %s: %v", rel, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("load %s: no packages", rel)
	}
	return pkgs
}

var wantRe = regexp.MustCompile(`// want ([a-z]+)`)

// wantMarkers scans the fixture's files for "// want <analyzer>" comments
// and returns the expected findings keyed "file:line:analyzer".
func wantMarkers(t *testing.T, pkgs []*Package) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, name := range pkg.Filenames {
			f, err := os.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for line := 1; sc.Scan(); line++ {
				for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
					want[fmt.Sprintf("%s:%d:%s", filepath.Base(name), line, m[1])] = true
				}
			}
			f.Close()
		}
	}
	return want
}

// ruleFixtures are the testdata/src packages with // want markers, one per
// analyzer.
var ruleFixtures = []string{"detrand", "httpdefault", "metricname"}

// TestAnalyzersOnFixtures runs the full suite over each fixture package and
// compares the findings against the // want markers: every marker must
// produce a finding, every finding must be marked.
func TestAnalyzersOnFixtures(t *testing.T) {
	for _, fx := range ruleFixtures {
		t.Run(fx, func(t *testing.T) {
			pkgs := loadFixture(t, fx)
			want := wantMarkers(t, pkgs)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no // want markers", fx)
			}
			got := make(map[string]bool)
			for _, d := range NewRunner().Run(pkgs) {
				got[fmt.Sprintf("%s:%d:%s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer)] = true
			}
			for k := range want {
				if !got[k] {
					t.Errorf("expected finding %s was not reported", k)
				}
			}
			for k := range got {
				if !want[k] {
					t.Errorf("unexpected finding %s", k)
				}
			}
		})
	}
}

// TestDirectiveFindings checks that malformed and unknown-analyzer ignore
// directives are themselves reported (expectations are explicit because a
// directive occupies its own comment line, leaving no room for a marker).
func TestDirectiveFindings(t *testing.T) {
	pkgs := loadFixture(t, "directive")
	diags := NewRunner().Run(pkgs)

	var sawMalformed, sawUnknown, sawFinding bool
	for _, d := range diags {
		switch {
		case d.Analyzer == "lintdirective" && strings.Contains(d.Message, "malformed"):
			sawMalformed = true
		case d.Analyzer == "lintdirective" && strings.Contains(d.Message, "unknown analyzer"):
			sawUnknown = true
		case d.Analyzer == "httpdefault":
			// The reason-less directive must NOT suppress the finding.
			sawFinding = true
		}
	}
	if !sawMalformed {
		t.Error("reason-less directive was not reported as malformed")
	}
	if !sawUnknown {
		t.Error("directive naming an unknown analyzer was not reported")
	}
	if !sawFinding {
		t.Error("timeout-less client under a malformed directive was wrongly suppressed")
	}
}

// TestParallelDeterminism pins byte-identical output at every processor
// count over a multi-package load: Run fans out over GOMAXPROCS, and the
// findings must not depend on it.
func TestParallelDeterminism(t *testing.T) {
	var pkgs []*Package
	for _, fx := range ruleFixtures {
		pkgs = append(pkgs, loadFixture(t, fx)...)
	}
	render := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var sb strings.Builder
		for _, d := range NewRunner().Run(pkgs) {
			sb.WriteString(d.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	serial := render(1)
	if serial == "" {
		t.Fatal("fixture load produced no diagnostics; determinism check is vacuous")
	}
	for _, procs := range []int{2, 4} {
		if got := render(procs); got != serial {
			t.Errorf("output at GOMAXPROCS=%d differs from GOMAXPROCS=1:\n--- 1 ---\n%s--- %d ---\n%s", procs, serial, procs, got)
		}
	}
}

// TestDiagnosticFormat pins the file:line:col rendering the CI gate and
// editors rely on.
func TestDiagnosticFormat(t *testing.T) {
	pkgs := loadFixture(t, "httpdefault")
	diags := NewRunner().Run(pkgs)
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	s := diags[0].String()
	re := regexp.MustCompile(`^.+\.go:\d+:\d+: \[[a-z]+\] .+`)
	if !re.MatchString(s) {
		t.Errorf("diagnostic %q does not match file:line:col: [analyzer] message", s)
	}
	if diags[0].Pos.Line == 0 || diags[0].Pos.Column == 0 {
		t.Errorf("diagnostic lacks a real position: %+v", diags[0].Pos)
	}
}

// TestAnalyzerRegistry checks the suite covers the three project rules and
// that names resolve.
func TestAnalyzerRegistry(t *testing.T) {
	names := []string{"detrand", "httpdefault", "metricname"}
	all := AllAnalyzers()
	if len(all) != len(names) {
		t.Fatalf("suite has %d analyzers, want %d", len(all), len(names))
	}
	for i, n := range names {
		if all[i].Name() != n {
			t.Errorf("analyzer %d is %q, want %q", i, all[i].Name(), n)
		}
		if AnalyzerByName(n) == nil {
			t.Errorf("AnalyzerByName(%q) = nil", n)
		}
		if all[i].Doc() == "" {
			t.Errorf("analyzer %q has no doc", n)
		}
	}
	if AnalyzerByName("nope") != nil {
		t.Error("AnalyzerByName should return nil for unknown names")
	}
}
