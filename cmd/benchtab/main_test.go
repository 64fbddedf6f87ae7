package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins the command's contract: 2 on a usage error — an
// unknown flag, experiment or benchmark, checked before anything runs —
// and 0 for a Table 1 row printed under the kernel-tier header.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stderr string // substring expected on stderr
		stdout string // substring expected on stdout
	}{
		{"unknown flag", []string{"-nosuch"}, 2, "flag provided but not defined: -nosuch", ""},
		{"unknown experiment", []string{"-exp", "table1,fig99"}, 2, `unknown experiment "fig99"`, ""},
		{"unknown benchmark", []string{"-benchmarks", "lenet,nosuch"}, 2, `unknown benchmark "nosuch"`, ""},
		{"no experiment", []string{"-exp", ","}, 2, "no experiment matched", ""},
		{"table1", []string{"-exp", "table1", "-benchmarks", "lenet", "-images", "16", "-width", "0.125"}, 0, "", "kernels\n\n== table1:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("exit code %d, want %d\nstderr: %s", got, tc.want, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not contain %q", &stderr, tc.stderr)
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout %q does not contain %q", &stdout, tc.stdout)
			}
			if tc.want != 0 && stdout.Len() != 0 {
				t.Errorf("a usage error printed to stdout: %q", &stdout)
			}
		})
	}
}
