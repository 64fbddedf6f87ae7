// Package cpu reports the vector instruction sets the kernels in
// internal/tensor and internal/tensorops may use. The repository is
// stdlib-only, so the amd64 probe is hand-written CPUID + XGETBV assembly
// (cpu_amd64.s) rather than golang.org/x/sys/cpu. The CPU decides: there is
// no environment variable, flag or build tag that overrides it.
package cpu

// AVX is set when the processor has AVX and the operating system saves the
// YMM state across context switches (OSXSAVE, XCR0 bits 1 and 2). F16C is
// set when, in addition, the half-precision conversions VCVTPS2PH/VCVTPH2PS
// exist. Both are false on every architecture other than amd64.
var AVX, F16C bool
