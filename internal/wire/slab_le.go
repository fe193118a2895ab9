//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package wire

import "unsafe"

// On a little-endian target a float slice in memory is already the
// byte string the formats define — each value's IEEE bits, least
// significant byte first — so the bulk converters in codec.go copy the
// slab whole instead of converting element by element. These two casts
// are the package's only use of unsafe: each returns the bytes backing
// f, aliasing it, for exactly len(f) elements. The same view lets a
// Writer hand an arena to the socket, and a Reader fill one from it,
// without a copy in between.

const littleEndian = true

func float32Slab(f []float32) ([]byte, bool) {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f)), true
}

func float64Slab(f []float64) ([]byte, bool) {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 8*len(f)), true
}
