//go:build amd64

package tensor

// cpuid executes CPUID with the given leaf/subleaf (cpuid_amd64.s).
func cpuid(leaf, sub uint32) (ax, bx, cx, dx uint32)

// xgetbv reads extended control register 0 (the XCR0 feature mask).
// Only meaningful when CPUID reports OSXSAVE.
func xgetbv() (ax, dx uint32)

// detectBestTier probes the widest kernel tier this host can run: avx2
// when the CPU has AVX2 and the OS has enabled YMM state saving
// (OSXSAVE + XCR0 bits 1-2), since without the latter the registers
// would be corrupted across context switches no matter what the CPU
// supports; scalar otherwise.
func detectBestTier() int32 {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return tierScalar
	}
	_, _, cx1, _ := cpuid(1, 0)
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if cx1&osxsave == 0 || cx1&avx == 0 {
		return tierScalar
	}
	if ax, _ := xgetbv(); ax&0x6 != 0x6 { // XMM and YMM state OS-enabled
		return tierScalar
	}
	_, bx7, _, _ := cpuid(7, 0)
	if bx7&(1<<5) == 0 { // AVX2
		return tierScalar
	}
	return tierAVX2
}
