package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/pareto"
)

// TestExitCodes pins the command's contract: 2 on a usage error — an
// unknown flag, model or benchmark — and 0 for a small tuning run that
// prints a curve the install-time phase can read.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stderr string // substring expected on stderr
	}{
		{"unknown flag", []string{"-nosuch"}, 2, "flag provided but not defined: -nosuch"},
		{"bad model", []string{"-model", "pi3"}, 2, `unknown model "pi3"`},
		{"unknown benchmark", []string{"-benchmark", "nosuch"}, 2, `unknown benchmark "nosuch"`},
		{"tune", []string{"-benchmark", "lenet", "-images", "16", "-width", "0.125", "-iters", "60", "-q"}, 0, ""},
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
			c, err := pareto.UnmarshalCurve(stdout.Bytes())
			if err != nil || c.Program != "lenet" || c.Len() == 0 {
				t.Fatalf("stdout is not a lenet curve (%v): %.200q", err, &stdout)
			}
		})
	}
}
