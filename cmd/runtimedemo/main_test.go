package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins the command's contract: 2 on a usage error — an
// unknown flag or benchmark — and 0 for a DVFS-ladder replay that prints
// the ladder table and the runtime health report.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stderr string // substring expected on stderr
	}{
		{"unknown flag", []string{"-policy", "average"}, 2, "flag provided but not defined: -policy"},
		{"unknown benchmark", []string{"-benchmark", "nosuch"}, 2, `unknown benchmark "nosuch"`},
		{"replay", []string{"-benchmark", "lenet", "-images", "16", "-width", "0.125", "-q"}, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("exit code %d, want %d\nstderr: %s", got, tc.want, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not contain %q", &stderr, tc.stderr)
			}
			if tc.want != 0 {
				return
			}
			for _, want := range []string{"freq(MHz)", "adaptation holds", "runtime health:"} {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, &stdout)
				}
			}
		})
	}
}
