package approxtuner

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const (
	// DESIGN.md describes the system as it is, one section per subsystem.
	// It reached 77.5 KB by telling subsystems in the order they were
	// built; 60 KiB is its size once static analysis came down to its
	// rules table and the kernel engine to one section, so a new section
	// has to pay for itself by replacing history somewhere else.
	designMaxBytes = 60 << 10

	// A CHANGES.md entry tells the next session what is done, not how it
	// was measured (that is EXPERIMENTS.md's job): PRs 17–20 wrote 2–4 KB
	// each and the file reached 47 KB. Five lines of at most 200 bytes is
	// what such a note needs; earlier entries are left as they are.
	changesFirstCapped = 21
	changesMaxLines    = 5
	changesMaxLineLen  = 200
)

var changesEntryRe = regexp.MustCompile(`^- PR (\d+)`)

// TestDocsStayWithinTheirCaps enforces the two ceilings above.
func TestDocsStayWithinTheirCaps(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(design) > designMaxBytes {
		t.Errorf("DESIGN.md is %d bytes, over its %d-byte cap: rewrite a section as current state instead of appending", len(design), designMaxBytes)
	}

	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	pr, lines := 0, 0
	check := func() {
		if pr >= changesFirstCapped && lines > changesMaxLines {
			t.Errorf("CHANGES.md entry for PR %d runs to %d lines, cap %d: measurements belong in EXPERIMENTS.md", pr, lines, changesMaxLines)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(string(changes), "\n"), "\n") {
		if m := changesEntryRe.FindStringSubmatch(line); m != nil {
			check()
			pr, _ = strconv.Atoi(m[1])
			lines = 0
		}
		lines++
		if pr >= changesFirstCapped && len(line) > changesMaxLineLen {
			t.Errorf("CHANGES.md entry for PR %d has a %d-byte line, cap %d", pr, len(line), changesMaxLineLen)
		}
	}
	check()
}
