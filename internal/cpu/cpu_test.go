package cpu

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestProbeAgreesWithKernel checks the hand-written probe against the flags
// the Linux kernel derives from the same CPUID leaves and XCR0.
func TestProbeAgreesWithKernel(t *testing.T) {
	t.Logf("AVX=%v F16C=%v", AVX, F16C)
	if runtime.GOARCH != "amd64" {
		if AVX || F16C {
			t.Fatalf("vector tiers reported on %s", runtime.GOARCH)
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no kernel view of the CPU to compare with: %v", err)
	}
	_, rest, ok := strings.Cut(string(info), "\nflags")
	if !ok {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	line, _, _ := strings.Cut(rest, "\n")
	flags := strings.Fields(line)
	if want := slices.Contains(flags, "avx"); AVX != want {
		t.Errorf("AVX = %v, kernel says %v", AVX, want)
	}
	if want := slices.Contains(flags, "avx") && slices.Contains(flags, "f16c"); F16C != want {
		t.Errorf("F16C = %v, kernel says %v", F16C, want)
	}
}
