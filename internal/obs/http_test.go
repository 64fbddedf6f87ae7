package obs

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRouteSettlesEveryOutcome pins obs.Route over the three ways a handler
// ends: a 2xx, a 4xx and a panic (which net/http recovers, dropping the
// connection). Each request is counted once in latency and once under its
// status class, and nothing stays in flight.
func TestRouteSettlesEveryOutcome(t *testing.T) {
	for _, tc := range []struct {
		pattern string
		handler http.HandlerFunc
		class   string
	}{
		{"GET /route-test/ok", func(w http.ResponseWriter, _ *http.Request) { ReplyJSON(w, http.StatusOK, "ok") }, "2xx"},
		{"POST /route-test/bad", func(w http.ResponseWriter, _ *http.Request) { ReplyError(w, http.StatusBadRequest, "bad") }, "4xx"},
		{"POST /route-test/panic", func(http.ResponseWriter, *http.Request) { panic("handler bug") }, "5xx"},
	} {
		t.Run(tc.class, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.Handle(tc.pattern, Route(tc.pattern, tc.handler))
			srv := httptest.NewUnstartedServer(mux)
			srv.Config.ErrorLog = log.New(io.Discard, "", 0) // the recovered panic's report
			srv.Start()
			defer srv.Close()
			// The families are process-wide: count from what is there.
			counts := func() (inClass, all, timed int64) {
				for _, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
					all += httpResponses.With(tc.pattern + " " + class).Value()
				}
				return httpResponses.With(tc.pattern + " " + tc.class).Value(), all, httpSeconds.With(tc.pattern).Snapshot().Count()
			}
			inClass0, all0, timed0 := counts()
			method, path, _ := strings.Cut(tc.pattern, " ")
			const n = 3
			for i := 0; i < n; i++ {
				req, err := http.NewRequest(method, srv.URL+path, nil)
				if err != nil {
					t.Fatal(err)
				}
				req.Close = true // a fresh connection each time: nothing is retried
				resp, err := srv.Client().Do(req)
				if (err != nil) != (tc.class == "5xx") {
					t.Fatalf("request %d: %v", i, err)
				}
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			inClass, all, timed := counts()
			if inClass-inClass0 != n || all-all0 != n {
				t.Errorf("%d responses counted as %s, %d in all; want %d", inClass-inClass0, tc.class, all-all0, n)
			}
			if timed-timed0 != all-all0 {
				t.Errorf("latency count %d, response count %d", timed-timed0, all-all0)
			}
			if got := httpInFlight.With(tc.pattern).Value(); got != 0 {
				t.Errorf("%v requests still in flight", got)
			}
		})
	}
}
