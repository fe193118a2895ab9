//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package wire

// Big-endian (or unlisted) targets have no slab view: the converters in
// codec.go keep their per-element loops, and the bulk messages their
// chunked path.

const littleEndian = false

func float32Slab([]float32) ([]byte, bool) { return nil, false }

func float64Slab([]float64) ([]byte, bool) { return nil, false }
