package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestExitCodes pins the command's contract: 2 on a usage error, 1 on a
// bad value, and 0 once a server that answered over its obs.Listen
// listener has drained on SIGTERM.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stderr string // substring expected on stderr
		drive  func(t *testing.T, base string)
	}{
		{"unknown flag", []string{"-nosuch"}, 2, "flag provided but not defined: -nosuch", nil},
		{"bad policy", []string{"-policy", "fastest"}, 1, `unknown policy "fastest"`, nil},
		{"unknown benchmark", []string{"-benchmark", "nosuch"}, 1, "nosuch", nil},
		{"serve and drain", []string{"-benchmark", "lenet", "-width", "0.125", "-exec-budget", "20ms", "-q"}, 0, "", inferAndScrape},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ready := filepath.Join(t.TempDir(), "ready")
			args := append([]string{"-addr", "127.0.0.1:0", "-ready-file", ready}, tc.args...)
			var stderr bytes.Buffer
			code := make(chan int, 1)
			go func() { code <- run(args, &stderr) }()
			if tc.drive != nil {
				tc.drive(t, "http://"+waitReady(t, ready, code))
				// run has caught SIGTERM since before the ready file existed.
				if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case got := <-code:
				if got != tc.want {
					t.Fatalf("exit code %d, want %d\nstderr: %s", got, tc.want, &stderr)
				}
			case <-time.After(time.Minute):
				t.Fatal("approxserve did not exit")
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not contain %q", &stderr, tc.stderr)
			}
		})
	}
}

// waitReady returns the address the server wrote to its ready file.
func waitReady(t *testing.T, path string, code <-chan int) string {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); {
		select {
		case c := <-code:
			t.Fatalf("approxserve exited %d before serving", c)
		case <-time.After(20 * time.Millisecond):
		}
		if addr, err := os.ReadFile(path); err == nil && len(addr) > 0 {
			return string(addr)
		}
	}
	t.Fatal("approxserve never wrote its ready file")
	return ""
}

// inferAndScrape answers one inference and then finds it on /metrics,
// counted under its route by obs.Route.
func inferAndScrape(t *testing.T, base string) {
	client := &http.Client{Timeout: 30 * time.Second}
	get := func(path string) []byte {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
		}
		return body
	}
	var spec serve.SpecResponse
	if err := json.Unmarshal(get("/v1/spec"), &spec); err != nil {
		t.Fatal(err)
	}
	n := 1
	for _, d := range spec.ItemDims {
		n *= d
	}
	body, err := json.Marshal(serve.InferRequest{Input: serve.TensorJSON{Dims: spec.ItemDims, Data: make([]float32, n)}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/infer: %d", resp.StatusCode)
	}
	metrics := get("/metrics")
	if !regexp.MustCompile(`(?m)^http_server_seconds_count\{key="POST /v1/infer"\} [1-9]`).Match(metrics) {
		t.Errorf("/metrics has no http_server_seconds series counting POST /v1/infer:\n%s", metrics)
	}
}
