package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestRepositoryIsLintClean is the golden gate: the committed tree must
// produce zero findings. Any new violation either gets fixed or gets a
// reasoned //lint:ignore — silently accumulating findings is not an
// option because this test fails on the first one.
func TestRepositoryIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	pkgs, err := testLoader(t).LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("only %d packages loaded from the module; loader is missing the tree", len(pkgs))
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.Path, terr)
		}
	}
	diags := NewRunner().Run(pkgs)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d finding(s); fix them or add a reasoned //lint:ignore", len(diags))
	}
}

// TestModuleHasNoDependencies pins the stdlib-only constraint where it is
// decided: a third-party import cannot resolve without a require directive.
func TestModuleHasNoDependencies(t *testing.T) {
	gomod, err := os.ReadFile(filepath.Join("..", "..", "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	if m := regexp.MustCompile(`(?m)^\s*(require|replace)\b.*`).Find(gomod); m != nil {
		t.Errorf("go.mod declares a dependency (%q); the module builds with the standard library alone", m)
	}
}
