package cpu

// cpuid1ECX returns ECX of CPUID leaf 1, the feature flags. Every amd64
// processor has the leaf.
func cpuid1ECX() uint32

// xgetbv0 returns the low half of extended control register 0. Only valid
// when CPUID reports OSXSAVE.
func xgetbv0() uint32

func init() {
	const (
		f16c    = 1 << 29
		avx     = 1 << 28
		osxsave = 1 << 27
		ymmXMM  = 0b110 // XCR0: SSE and AVX state enabled by the OS
	)
	ecx := cpuid1ECX()
	AVX = ecx&osxsave != 0 && ecx&avx != 0 && xgetbv0()&ymmXMM == ymmXMM
	F16C = AVX && ecx&f16c != 0
}
