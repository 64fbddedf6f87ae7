// Package httpdefault is a source-rule fixture: timeout-less HTTP clients
// and servers.
package httpdefault

import (
	"net/http"
	"time"
)

// UseDefaultClient issues a request through the shared timeout-less
// client — flagged.
func UseDefaultClient() (*http.Response, error) {
	return http.DefaultClient.Get("http://coordinator/v1/curve") // want httpdefault
}

// PackageHelpers route through DefaultClient — each call flagged.
func PackageHelpers() {
	_, _ = http.Get("http://coordinator/v1/assignments")        // want httpdefault
	_, _ = http.Post("http://coordinator/v1/profiles", "", nil) // want httpdefault
	_, _ = http.PostForm("http://coordinator/v1/register", nil) // want httpdefault
	_, _ = http.Head("http://coordinator/v1/curve")             // want httpdefault
}

// NoTimeout builds a client without a Timeout — flagged.
func NoTimeout() *http.Client {
	return &http.Client{Transport: http.DefaultTransport} // want httpdefault
}

// EmptyClient is the zero client — flagged.
func EmptyClient() *http.Client {
	return &http.Client{} // want httpdefault
}

// WithTimeout sets an explicit deadline — not flagged.
func WithTimeout() *http.Client {
	return &http.Client{Timeout: 10 * time.Second}
}

// ServerNoTimeout builds a listener without any header-read bound — a
// slowloris peer can pin its accept slots — flagged.
func ServerNoTimeout(h http.Handler) *http.Server {
	return &http.Server{Handler: h} // want httpdefault
}

// EmptyServer is the zero server — flagged.
func EmptyServer() *http.Server {
	return &http.Server{} // want httpdefault
}

// ServerWithHeaderTimeout bounds header reads — not flagged.
func ServerWithHeaderTimeout(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
}

// ServerWithReadTimeout bounds the whole read, headers included — not
// flagged.
func ServerWithReadTimeout(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadTimeout: 10 * time.Second}
}
