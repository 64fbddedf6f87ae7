package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/serve"
)

// TestExitCodes pins the command's contract: 2 on a usage error — an
// unknown flag or a -url that is not http(s) — 1 when the server cannot be
// reached, and 0 for a closed-loop burst against an in-process approxserve
// handler that fails no request.
func TestExitCodes(t *testing.T) {
	s, err := serve.New(serve.Config{
		Graph:    models.LeNet(1, 0.125).Graph,
		Curve:    pareto.NewCurve("lenet", 100, []pareto.Point{{QoS: 100, Perf: 1, Config: approx.Config{}}}),
		ItemDims: []int{1, 28, 28},
		SLO:      250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live := httptest.NewServer(s.Handler())
	defer live.Close()
	gone := httptest.NewServer(nil)
	gone.Close()

	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stderr string // substring expected on stderr
		stdout string // substring expected on stdout
	}{
		{"unknown flag", []string{"-nosuch"}, 2, "flag provided but not defined: -nosuch", ""},
		{"bad scheme", []string{"-url", "ftp://127.0.0.1:8080"}, 2, "is not an http or https URL", ""},
		{"unreachable", []string{"-url", gone.URL, "-n", "1", "-timeout", "5s"}, 1, "spec fetch", ""},
		{"burst", []string{"-url", live.URL, "-n", "8", "-c", "2", "-items", "2", "-seed", "7", "-max-errors", "0", "-json", "-"}, 0, "", `"ok": 8,`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("exit code %d, want %d\nstdout: %s\nstderr: %s", got, tc.want, &stdout, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not contain %q", &stderr, tc.stderr)
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout %q does not contain %q", &stdout, tc.stdout)
			}
		})
	}
}
