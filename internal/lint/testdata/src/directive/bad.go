// Package directive is a lint fixture: malformed and unknown suppression
// directives are themselves findings (checked by explicit expectations in
// the test, since the directive occupies its own comment line).
package directive

import "net/http"

//lint:ignore httpdefault
func missingReason() *http.Client { return &http.Client{} }

//lint:ignore nosuchanalyzer the analyzer name is wrong
func unknownAnalyzer() {}
