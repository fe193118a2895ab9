package wire

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// sampleEnvelopes is one representative message of every type.
func sampleEnvelopes() []*Envelope {
	return []*Envelope{
		{Type: MsgHello, Hello: &Hello{NodeID: 3, Role: "monitor+control", NumPIs: 10, Hostname: "client-3", Epoch: 2, Proto: ProtoVersion}},
		{Type: MsgIndicators, Indicators: &Indicators{NodeID: 1, Tick: 42, Epoch: 1, Indices: []int{0, 5}, Values: []float64{1.5, -2}}},
		{Type: MsgAction, Action: &Action{Tick: 7, Values: []float64{8, 20000}, ID: 2}},
		{Type: MsgAck, Ack: &Ack{NodeID: 2, Tick: 7, OK: false, Error: "boom"}},
		{Type: MsgWorkloadChange, WorkloadChange: &WorkloadChange{Tick: 9, Name: "fileserver"}},
		{Type: MsgHeartbeat, Heartbeat: &Heartbeat{NodeID: 4, Epoch: 3}},
		{Type: MsgGradFrame, GradFrame: &GradFrame{Rank: 1, Epoch: 2, Step: 3, BatchN: 32, Loss: 0.5, Grads: make([]float32, 40)}},
		{Type: MsgParamBcast, ParamBcast: &ParamBcast{Step: 4, Sync: true, Loss: 0.25, AdamStep: 3,
			Params: []float32{1, 2, 3}, Target: []float32{4, 5, 6}, M: []float32{7, 8, 9}, V: []float32{10, 11, 12}}},
	}
}

// relen rewrites a frame's length prefix to match its actual length.
func relen(b []byte) []byte {
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// allocatedBytes reports how many heap bytes f allocated (process-wide,
// so concurrent goroutines add noise: compare against a bound with slack).
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadMsg throws arbitrary byte streams at the frame decoder. It
// must never panic, must not allocate more than a small multiple of the
// frame length its prefix claims (nothing in a frame expands, and every
// count is checked against the frame before allocating), and anything
// it accepts must re-encode to a frame that decodes to the same bytes.
func FuzzReadMsg(f *testing.F) {
	for _, env := range sampleEnvelopes() {
		buf, err := Encode(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		// Truncations exercise the unexpected-EOF paths; a truncated
		// body under a corrected prefix exercises the field checks.
		f.Add(buf[:len(buf)/2])
		f.Add(buf[:4])
		f.Add(relen(bytes.Clone(buf[:len(buf)-1])))
		// Trailing garbage inside the frame.
		f.Add(relen(append(bytes.Clone(buf), 0xde, 0xad)))
	}
	// Length prefix lies about the payload.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 8, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4})
	// Counts far beyond the frame: 2^30 values, 2^63 indicator entries,
	// a string longer than its frame, arena counts that overflow ×4.
	f.Add(relen(binary.AppendUvarint([]byte{0, 0, 0, 0, byte(MsgAction), 2, 4}, 1<<30)))
	f.Add(relen(binary.AppendUvarint([]byte{0, 0, 0, 0, byte(MsgIndicators), 2, 2, 1}, 1<<63)))
	f.Add(relen([]byte{0, 0, 0, 0, byte(MsgWorkloadChange), 2, 0x7f, 'x'}))
	bcastHead := []byte{0, 0, 0, 0, byte(MsgParamBcast), 2 /* Step 1 */, 1 /* Sync */, 0, 0, 0, 0, 0, 0, 0, 0 /* Loss */, 2 /* AdamStep 1 */}
	f.Add(relen(binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(bytes.Clone(bcastHead), 1<<62), 1<<62), 1<<62), 1<<62)))
	// Four counts that each fit the frame and together do not; a count
	// that fits with nothing behind it.
	f.Add(relen(append(append(bytes.Clone(bcastHead), 2, 2, 2, 2), make([]byte, 8)...)))
	f.Add(relen(append(bytes.Clone(bcastHead), 0, 0, 0, 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		bound := uint64(64 << 10) // slack for the Reader itself and runtime noise
		if len(data) >= 4 {
			if n := binary.BigEndian.Uint32(data); n <= MaxFrameBytes {
				bound += 3 * uint64(n)
			}
		}
		var env *Envelope
		var err error
		if got := allocatedBytes(func() { env, err = ReadMsg(bytes.NewReader(data)) }); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			return // rejected cleanly
		}
		again, err := Encode(env)
		if err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v", err)
		}
		env2, err := ReadMsg(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if final, err := Encode(env2); err != nil || !bytes.Equal(final, again) {
			t.Fatalf("re-encoding is not a fixed point: %x vs %x (%v)", final, again, err)
		}
		// A gradient frame decodes the same into an arena of exactly its
		// size, and not at all into any other.
		if gf := env.GradFrame; gf != nil && len(gf.Grads) > 0 {
			for _, n := range []int{len(gf.Grads), len(gf.Grads) + 1, len(gf.Grads) - 1} {
				arena := make([]float32, n)
				r := NewReader(bytes.NewReader(data))
				r.LendGrads(func(int) []float32 { return arena })
				lent, err := r.Read()
				if (err == nil) != (n == len(gf.Grads)) {
					t.Fatalf("%d values into a lent arena of %d: %v", len(gf.Grads), n, err)
				}
				if err == nil {
					if out, _ := Encode(lent); !bytes.Equal(out, again) {
						t.Fatal("lent decode differs from the allocating one")
					}
				}
			}
		}
	})
}
