// Package finding is a command fixture: one httpdefault finding.
package finding

import "net/http"

// Client has no timeout.
func Client() *http.Client { return &http.Client{} }
