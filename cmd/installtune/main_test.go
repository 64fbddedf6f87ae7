package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins the command's contract: 2 on a usage error (the
// removed -http transport included), 1 on a bad value, and 0 for a small
// two-edge run that prints a curve.
func TestExitCodes(t *testing.T) {
	small := []string{"-benchmark", "lenet", "-images", "16", "-width", "0.125", "-iters", "60", "-edges", "2", "-q"}
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stderr string // substring expected on stderr
	}{
		{"unknown flag", []string{"-nosuch"}, 2, "flag provided but not defined: -nosuch"},
		{"bad device", []string{"-device", "tpu"}, 1, `unknown device "tpu"`},
		{"unknown benchmark", []string{"-benchmark", "nosuch"}, 1, "nosuch"},
		{"in-process fleet", small, 0, ""},
		{"removed -http", []string{"-http"}, 2, "flag provided but not defined: -http"},
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
			if !strings.HasPrefix(stdout.String(), "{") {
				t.Fatalf("stdout is not a curve: %.200q", &stdout)
			}
		})
	}
}
