//go:build unix

package parallel

import (
	"syscall"
	"testing"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleTeamBurnsNoCPU: polling is bounded. Once the helpers have parked,
// a process that dispatches nothing spends nothing — a helper still polling
// would burn the whole window.
func TestIdleTeamBurnsNoCPU(t *testing.T) {
	For(64, func(int) {}) // start the team
	waitParked(t)
	const window = 200 * time.Millisecond
	before := cpuTime(t)
	time.Sleep(window)
	if burnt := cpuTime(t) - before; burnt > window/20 {
		t.Errorf("idle process used %v of CPU in %v with %d helpers parked", burnt, window, team.parked.Load())
	}
	if parked, helpers := team.parked.Load(), team.helpers.Load(); parked != helpers {
		t.Errorf("%d of %d helpers parked after the idle window", parked, helpers)
	}
}
