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
// supports; avx512 when the CPU also has AVX512F and the OS saves the
// opmask and both halves of the ZMM file too (XCR0 bits 5-7); scalar
// otherwise. The avx512 bodies use AVX512F instructions only, so that
// one CPUID bit is the whole requirement.
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
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 { // XMM and YMM state OS-enabled
		return tierScalar
	}
	_, bx7, _, _ := cpuid(7, 0)
	if bx7&(1<<5) == 0 { // AVX2
		return tierScalar
	}
	// AVX512F, with XMM, YMM, opmask, ZMM0-15 upper halves and ZMM16-31
	// state all OS-enabled.
	if bx7&(1<<16) == 0 || xcr0&0xE6 != 0xE6 {
		return tierAVX2
	}
	return tierAVX512
}
