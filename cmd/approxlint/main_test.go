package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestExitCodes pins the command's contract as a gate: 0 clean, 1 on a
// finding, 2 on a usage error — including the flags that no longer exist.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stdout string // substring expected on stdout
	}{
		{"clean", []string{"testdata/clean"}, 0, ""},
		{"finding", []string{"testdata/finding"}, 1, "bad.go:7:38: [httpdefault]"},
		{"only other analyzer", []string{"-only", "detrand", "testdata/finding"}, 0, ""},
		{"unknown analyzer", []string{"-only", "nosuch", "testdata/clean"}, 2, ""},
		{"not a directory", []string{"testdata/nosuch"}, 2, ""},
		{"removed -p", []string{"-p", "0", "testdata/clean"}, 2, ""},
		{"removed -json", []string{"-json", "testdata/clean"}, 2, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("exit code %d, want %d\nstdout: %s\nstderr: %s", got, tc.want, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout %q does not contain %q", &stdout, tc.stdout)
			}
		})
	}
}

// TestListMatchesRegistryAndREADME guards the analyzer inventory: -list
// prints exactly the registry, and the README's analyzer table documents
// exactly the same rules, so one cannot land without the other.
func TestListMatchesRegistryAndREADME(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, &stderr)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		name, _, _ := strings.Cut(line, " ")
		listed = append(listed, name)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|").FindAllSubmatch(readme, -1) {
		documented = append(documented, string(m[1]))
	}

	var registry []string
	for _, a := range lint.AllAnalyzers() {
		registry = append(registry, a.Name())
	}
	want := strings.Join(registry, " ")
	if got := strings.Join(listed, " "); got != want {
		t.Errorf("-list prints %q, registry is %q", got, want)
	}
	if got := strings.Join(documented, " "); got != want {
		t.Errorf("README analyzer table lists %q, registry is %q", got, want)
	}
}
