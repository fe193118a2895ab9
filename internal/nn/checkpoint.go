package nn

import (
	"fmt"
	"io"
	"os"

	"capes/internal/tensor"
	"capes/internal/wire"
)

// Checkpointing. The CAPES artifact "automatically checkpoints and stores
// the trained model when being stopped, and loads the saved model when
// being started next time" (§A.4). A checkpoint is the MLP topology and
// the flat parameter arena as raw little-endian floats, in the file
// framing of internal/wire (magic, version, checksum trailer):
//
//	offset  size  field
//	0       8     magic "CAPESDNN"
//	8       4     u32 format version (3)
//	12      4     u32 precision p: bytes per parameter, 4 (float32) or 8 (float64)
//	16      4     i32 hidden activation (Activation)
//	20      4     u32 L, the number of layer widths
//	24      8     u64 N, the number of parameters
//	32      4·L   u32 layer widths: input, hidden..., output
//	32+4·L  p·N   the parameter arena, layer by layer (weights, then bias)
//	…       4     u32 CRC-32C of every byte before it
//
// The arena is stored at the model's own precision, and Load[E] restores
// a checkpoint only at that precision: the round trip is bit-exact (NaN
// payloads and −0 included), and a file whose tag is not ElemSize[E] is
// an error naming both precisions. Only float32 and float64 arenas are
// checkpointed; a named element type is an error. Load checks N against
// the layer widths and the file's length against N before it allocates,
// and verifies the checksum before it returns. There is one format and
// no compression (see internal/wire/file.go): versions 1 and 2 were
// gob+flate streams and are not read — load and re-save them with the
// release that wrote them first.

const (
	checkpointMagic   = "CAPESDNN"
	checkpointVersion = 3

	maxCheckpointLayers = 1 << 10 // layer widths in a header
	maxCheckpointWidth  = 1 << 24 // units per layer, far above any real network
)

// precisionName returns the checkpoint tag for the element type.
func precisionName[E tensor.Element]() string { return tagName(tensor.ElemSize[E]()) }

// tagName names a checkpoint precision tag (bytes per parameter).
func tagName(bytes int) string {
	if bytes == 4 {
		return "float32"
	}
	return "float64"
}

// errNamedElement is what Save and Load return for a named element type,
// whose arena has no checkpoint encoding.
func errNamedElement[E tensor.Element]() error {
	return fmt.Errorf("nn: checkpoints hold float32 or float64 parameters, not %T", *new(E))
}

// Save writes the model to w at the model's precision. The arena goes
// out in bounded chunks straight from the model's memory: nothing the
// size of the model is allocated.
func (m *MLP[E]) Save(w io.Writer) error {
	d32, is32 := any(m.paramData).([]float32)
	d64, is64 := any(m.paramData).([]float64)
	if !is32 && !is64 {
		return errNamedElement[E]()
	}
	fw := wire.NewFileWriter(w, checkpointMagic, checkpointVersion)
	fw.Uint32(uint32(tensor.ElemSize[E]()))
	fw.Uint32(uint32(int32(m.Activation)))
	fw.Uint32(uint32(len(m.Sizes)))
	fw.Uint64(uint64(len(m.paramData)))
	for _, s := range m.Sizes {
		fw.Uint32(uint32(s))
	}
	if is32 {
		fw.Float32s(d32)
	} else {
		fw.Float64s(d64)
	}
	if err := fw.Close(); err != nil {
		return fmt.Errorf("nn: write checkpoint: %w", err)
	}
	return nil
}

// checkpointHeader is what precedes the arena.
type checkpointHeader struct {
	precision  int // bytes per stored parameter
	activation Activation
	sizes      []int
}

// readCheckpointHeader opens a checkpoint on r and validates everything
// its header claims: after it, the arena the header describes is exactly
// what the file has left.
func readCheckpointHeader(r io.Reader) (*wire.FileReader, checkpointHeader, error) {
	var h checkpointHeader
	fr, err := wire.NewFileReader(r, checkpointMagic, checkpointVersion)
	if err != nil {
		return nil, h, fmt.Errorf("nn: read checkpoint: %w", err)
	}
	h.precision = int(fr.Uint32())
	h.activation = Activation(int32(fr.Uint32()))
	layers, params := fr.Uint32(), fr.Uint64()
	if err := fr.Err(); err != nil {
		return nil, h, fmt.Errorf("nn: read checkpoint: %w", err)
	}
	if h.precision != 4 && h.precision != 8 {
		return nil, h, fmt.Errorf("nn: checkpoint precision tag %d is neither 4 nor 8", h.precision)
	}
	if h.activation < ActNone || h.activation > ActReLU {
		return nil, h, fmt.Errorf("nn: checkpoint has unknown activation %d", int(h.activation))
	}
	if layers < 2 || layers > maxCheckpointLayers || int64(layers)*4 > fr.Remaining() {
		return nil, h, fmt.Errorf("nn: checkpoint claims %d layer widths with %d bytes left", layers, fr.Remaining())
	}
	h.sizes = make([]int, layers)
	for i := range h.sizes {
		h.sizes[i] = int(fr.Uint32())
		if h.sizes[i] < 1 || h.sizes[i] > maxCheckpointWidth {
			return nil, h, fmt.Errorf("nn: checkpoint layer width %d outside [1, %d]", h.sizes[i], maxCheckpointWidth)
		}
	}
	// Widths ≤ 2²⁴ and ≤ 2¹⁰ of them keep arenaLen below 2⁵⁹.
	need := arenaLen(h.sizes)
	if params != uint64(need) {
		return nil, h, fmt.Errorf("nn: checkpoint has %d parameters, layers %v need %d", params, h.sizes, need)
	}
	if want := int64(need) * int64(h.precision); fr.Remaining() != want {
		return nil, h, fmt.Errorf("nn: checkpoint arena needs %d bytes, file has %d", want, fr.Remaining())
	}
	return fr, h, nil
}

// Load reads a checkpoint from r and returns the model it holds at
// precision E, which must be the precision it was saved at.
func Load[E tensor.Element](r io.Reader) (*MLP[E], error) {
	fr, h, err := readCheckpointHeader(r)
	if err != nil {
		return nil, err
	}
	if h.precision != tensor.ElemSize[E]() {
		return nil, fmt.Errorf("nn: checkpoint holds %s parameters, cannot load them as %s",
			tagName(h.precision), precisionName[E]())
	}
	m := NewMLP[E](nil, h.activation, h.sizes...)
	switch d := any(m.paramData).(type) {
	case []float32:
		fr.Float32s(d)
	case []float64:
		fr.Float64s(d)
	default:
		return nil, errNamedElement[E]()
	}
	if err := fr.Close(); err != nil {
		return nil, fmt.Errorf("nn: read checkpoint: %w", err)
	}
	return m, nil
}

// SaveFile writes a checkpoint to path (atomically via a temp file).
func (m *MLP[E]) SaveFile(path string) error {
	return wire.WriteFileAtomic(path, m.Save)
}

// LoadFile reads a checkpoint from path at precision E.
func LoadFile[E tensor.Element](path string) (*MLP[E], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load[E](f)
}
