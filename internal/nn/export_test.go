package nn

import "io"

// ForwardVec runs a single observation (len == InputSize) and returns a
// fresh copy of the output vector.
func (m *MLP[E]) ForwardVec(obs []E) []E {
	return m.ForwardVecInto(make([]E, m.OutputSize()), obs)
}

// CheckpointInfo reports a checkpoint's precision tag and layer sizes
// from its header alone, without reading the arena or verifying the
// checksum.
func CheckpointInfo(r io.Reader) (precision string, sizes []int, err error) {
	_, h, err := readCheckpointHeader(r)
	if err != nil {
		return "", nil, err
	}
	return tagName(h.precision), h.sizes, nil
}
