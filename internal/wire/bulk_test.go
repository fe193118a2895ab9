package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// guarded returns an n-value arena with sentinels on both sides of it in
// the same allocation, and a check that they are still there: a decode
// that writes past the slice it was lent is caught.
func guarded(n int) (arena []float32, intact func() bool) {
	const guard = 16
	sentinel := math.Float32frombits(0xfeedbeef & 0x7fffffff)
	buf := make([]float32, n+2*guard)
	for i := range buf {
		buf[i] = sentinel
	}
	return buf[guard : guard+n : guard+n], func() bool {
		for i, v := range buf {
			if (i < guard || i >= guard+n) && math.Float32bits(v) != math.Float32bits(sentinel) {
				return false
			}
		}
		return true
	}
}

// oneByte delivers a stream a byte at a time: every read boundary falls
// everywhere.
type oneByte struct{ r io.Reader }

func (o oneByte) Read(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	return o.r.Read(b[:1])
}

// TestLentGradFrameRoundTrip: frames of every size around the head read
// and the chunk size decode into the arena the caller lends — the very
// slice, bit for bit (NaN payloads, −0), nothing written outside it — and
// the Reader stays usable: small messages and pass frames in between
// neither consume nor disturb the loan.
func TestLentGradFrameRoundTrip(t *testing.T) {
	g := gen{rand.New(rand.NewSource(5))}
	for _, split := range []bool{false, true} {
		for _, n := range []int{1, 2, maxBulkHead/4 - 1, maxBulkHead / 4, maxBulkHead/4 + 3, 1000, BulkChunk / 4, BulkChunk/4 + 1, 70_001} {
			var stream bytes.Buffer
			w := NewWriter(&stream)
			var src io.Reader = &stream
			if split {
				src = oneByte{&stream}
			}
			r := NewReader(src)
			arena, intact := guarded(n)
			asked := 0
			r.LendGrads(func(k int) []float32 { asked = k; return arena })

			want := &GradFrame{Rank: 2, Epoch: 9, Step: 77, BatchN: 32, Loss: g.float64(), Grads: g.float32s(n)}
			pass := &GradFrame{Rank: 2, Epoch: 9, Step: 78}
			for _, env := range []*Envelope{
				{Type: MsgHeartbeat, Heartbeat: &Heartbeat{NodeID: 2, Epoch: 9}},
				{Type: MsgGradFrame, GradFrame: pass},
				{Type: MsgGradFrame, GradFrame: want},
				{Type: MsgHeartbeat, Heartbeat: &Heartbeat{NodeID: 2, Epoch: 9}},
			} {
				if _, err := w.Write(env); err != nil {
					t.Fatal(err)
				}
			}
			if env, err := r.Read(); err != nil || env.Type != MsgHeartbeat {
				t.Fatalf("n=%d: %+v, %v", n, env, err)
			}
			env, err := r.Read()
			if err != nil || env.GradFrame.Grads != nil || env.GradFrame.Step != 78 || asked != 0 {
				t.Fatalf("n=%d: pass frame read wrong (%v), lender asked for %d", n, err, asked)
			}
			env, err = r.Read()
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			got := env.GradFrame
			if asked != n || len(got.Grads) != n || &got.Grads[0] != &arena[0] {
				t.Fatalf("n=%d: lender asked for %d, frame carries %d values in its own storage", n, asked, len(got.Grads))
			}
			if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
				t.Fatalf("n=%d: lent decode changed the frame", n)
			}
			if !intact() {
				t.Fatalf("n=%d: decode wrote outside the lent arena", n)
			}
			if env, err := r.Read(); err != nil || env.Type != MsgHeartbeat || stream.Len() != 0 {
				t.Fatalf("n=%d: after the frame: %+v, %v, %d bytes left", n, env, err, stream.Len())
			}
		}
	}
}

// TestLentGradFrameRefusals: whatever is wrong with a frame, the lent
// arena is never written past, nothing frame-sized is allocated, an
// error comes back, and the Reader is dead afterwards — the stream is
// mid-frame, so the connection has to go.
func TestLentGradFrameRefusals(t *testing.T) {
	const n = 5000
	grads := make([]float32, n)
	for i := range grads {
		grads[i] = float32(i)
	}
	good, err := Encode(&Envelope{Type: MsgGradFrame, GradFrame: &GradFrame{Rank: 1, Epoch: 1, Step: 3, BatchN: 32, Loss: 1, Grads: grads}})
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := Encode(&Envelope{Type: MsgHeartbeat, Heartbeat: &Heartbeat{NodeID: 1, Epoch: 1}})
	// The count is the last field of the head: n as a uvarint, two bytes.
	countAt := len(good) - 4*n - 2
	if v, k := binary.Uvarint(good[countAt:]); v != n || k != 2 {
		t.Fatalf("test is out of step with the layout: count %d in %d bytes at %d", v, k, countAt)
	}
	recount := func(c uint64) []byte {
		b := append(bytes.Clone(good[:countAt]), binary.AppendUvarint(nil, c)...)
		return relen(append(b, good[countAt+2:]...))
	}
	huge := bytes.Clone(good)
	binary.BigEndian.PutUint32(huge, MaxFrameBytes+1)

	cases := []struct {
		name     string
		stream   []byte
		lend     int // length of the arena on offer
		wantAsk  int // what the lender must have been asked for (0: never asked)
		wantText string
	}{
		{"arena too short", good, n - 1, n, "lent arena"},
		{"arena too long", good, n + 1, n, "lent arena"},
		{"lender refuses", good, 0, n, "lent arena"},
		{"count below the slab", recount(n - 1), n - 1, 0, "claims"},
		{"count above the slab", recount(n + 1), n + 1, 0, "claims"},
		{"count beyond the frame", recount(1 << 40), n, 0, "claims"},
		{"trailing bytes", relen(append(bytes.Clone(good), 1, 2, 3, 4)), n, 0, "claims"},
		{"truncated slab", good[:len(good)-6], n, n, "unexpected EOF"},
		{"truncated head", good[:12], n, 0, "unexpected EOF"},
		{"frame over MaxFrameBytes", huge, n, 0, "invalid frame length"},
	}
	for _, tc := range cases {
		arena, intact := guarded(tc.lend)
		asked := 0
		stream := bytes.Clone(tc.stream)
		if !strings.HasPrefix(tc.name, "truncated") {
			stream = append(stream, hb...) // a good message behind the bad one: it must not be read
		}
		r := NewReader(bytes.NewReader(stream))
		r.LendGrads(func(k int) []float32 { asked = k; return arena })
		var env *Envelope
		var err error
		allocated := allocatedBytes(func() { env, err = r.Read() })
		if err == nil {
			t.Errorf("%s: accepted (%d values)", tc.name, len(env.GradFrame.Grads))
			continue
		}
		if !strings.Contains(err.Error(), tc.wantText) {
			t.Errorf("%s: error %q, want one about %q", tc.name, err, tc.wantText)
		}
		if asked != tc.wantAsk {
			t.Errorf("%s: lender asked for %d values, want %d", tc.name, asked, tc.wantAsk)
		}
		if !intact() {
			t.Errorf("%s: wrote outside the lent arena", tc.name)
		}
		if allocated > 8<<10 {
			t.Errorf("%s: refusing the frame allocated %d bytes", tc.name, allocated)
		}
		if _, again := r.Read(); again != err {
			t.Errorf("%s: the Reader went on after its error: %v", tc.name, again)
		}
	}

	// A short arena is not "filled as far as it goes": not one value of
	// the frame reaches it.
	arena, _ := guarded(n - 1)
	clear(arena)
	r := NewReader(bytes.NewReader(good))
	r.LendGrads(func(int) []float32 { return arena })
	if _, err := r.Read(); err == nil {
		t.Fatal("short arena accepted")
	}
	for i, v := range arena {
		if v != 0 {
			t.Fatalf("refused frame wrote %v into the arena at %d", v, i)
		}
	}
}

// TestFullSyncRefusals: the four-arena ParamBcast holds its counts to the
// frame the same way, whichever arena lies.
func TestFullSyncRefusals(t *testing.T) {
	good, err := Encode(&Envelope{Type: MsgParamBcast, ParamBcast: &ParamBcast{Step: 9, Sync: true, Loss: 2, AdamStep: 4,
		Params: []float32{1, 2, 3}, Target: []float32{4, 5, 6}, M: []float32{7, 8, 9}, V: []float32{10, 11, 12}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMsg(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	countsAt := len(good) - 4*12 - 4 // four one-byte counts close the head
	if !bytes.Equal(good[countsAt:countsAt+4], []byte{3, 3, 3, 3}) {
		t.Fatalf("test is out of step with the layout: % x", good[countsAt:countsAt+4])
	}
	for i := 0; i < 4; i++ {
		for _, c := range []byte{0, 2, 4, 0x7f} {
			bad := bytes.Clone(good)
			bad[countsAt+i] = c
			if env, err := ReadMsg(bytes.NewReader(bad)); err == nil {
				t.Errorf("arena %d counted as %d: accepted (step %d)", i, c, env.ParamBcast.Step)
			}
		}
	}
	// Counts that move values from one arena to its neighbour add up,
	// and decode: the frame cannot know better. The receiver checks every
	// arena against its network (rl.Agent.ApplyParamBroadcast).
	moved := bytes.Clone(good)
	moved[countsAt], moved[countsAt+1] = 2, 4
	env, err := ReadMsg(bytes.NewReader(moved))
	if err != nil || len(env.ParamBcast.Params) != 2 || len(env.ParamBcast.Target) != 4 {
		t.Fatalf("self-consistent counts refused: %+v, %v", env, err)
	}
	for cut := 5; cut < len(good); cut += 7 {
		if _, err := ReadMsg(bytes.NewReader(good[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: %v, want unexpected EOF", cut, err)
		}
	}
	if _, err := ReadMsg(bytes.NewReader(relen(append(bytes.Clone(good), 0)))); err == nil {
		t.Error("trailing byte accepted")
	}
}

// countingWriter records the Write calls it receives.
type countingWriter struct {
	bytes.Buffer
	calls int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	c.calls++
	return c.Buffer.Write(b)
}

// TestSlabWriteMatchesChunked holds the vectored slab write to the
// chunked path it replaces on little-endian targets, byte for byte: NaN
// payloads, ±0 and denormals in the arenas, a source that is not
// 16-byte aligned, every bulk shape (one arena, four, some empty).
// And the way back: the slab read and the chunked read fill an arena
// with the same bits.
func TestSlabWriteMatchesChunked(t *testing.T) {
	g := gen{rand.New(rand.NewSource(6))}
	backing := g.float32s(3*BulkChunk/4 + 11)
	arena := func(off, n int) []float32 { return backing[off : off+n] } // off odd: 4-aligned only
	envs := []*Envelope{
		{Type: MsgGradFrame, GradFrame: &GradFrame{Rank: 1, Epoch: 2, Step: 3, BatchN: 4, Loss: g.float64(), Grads: arena(1, 2*BulkChunk/4+5)}},
		{Type: MsgGradFrame, GradFrame: &GradFrame{Rank: 1, Grads: arena(3, 1)}},
		{Type: MsgParamBcast, ParamBcast: &ParamBcast{Step: 5, Sync: true, AdamStep: 5,
			Params: arena(1, 9000), Target: arena(7, 9000), M: arena(9001, 9000), V: arena(5, 9000)}},
		{Type: MsgParamBcast, ParamBcast: &ParamBcast{Step: 5, Sync: true, Params: arena(1, 300), Target: arena(301, 300)}},
		{Type: MsgParamBcast, ParamBcast: &ParamBcast{V: arena(11, 17)}},
	}
	for i, env := range envs {
		want, err := Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		var ref countingWriter
		w := NewWriter(&ref)
		head, bulk, err := appendHead(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		if err := finishFrame(head, len(want)); err != nil {
			t.Fatal(err)
		}
		if _, err := w.writeChunked(head, bulk); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref.Bytes(), want) {
			t.Fatalf("#%d: chunked write differs from Encode", i)
		}

		var out countingWriter
		n, err := NewWriter(&out).Write(env)
		if err != nil || n != len(want) || !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("#%d: Writer produced %d bytes (%v) that differ from the chunked path's %d", i, n, err, len(want))
		}
		if littleEndian {
			// Header plus one Write per non-empty arena — on a TCP
			// connection a single writev — however large the arenas.
			arenas := 0
			for _, f := range bulk {
				if len(f) > 0 {
					arenas++
				}
			}
			if out.calls != 1+arenas {
				t.Fatalf("#%d: slab write took %d Write calls for %d arenas", i, out.calls, arenas)
			}
		}

		for _, f := range bulk {
			raw := appendFloat32sLoop(nil, f)
			a, b := make([]float32, len(f)), make([]float32, len(f))
			if err := NewReader(bytes.NewReader(raw)).readChunked(a); err != nil {
				t.Fatal(err)
			}
			if littleEndian {
				if err := NewReader(oneByte{bytes.NewReader(raw)}).readSlab(b); err != nil {
					t.Fatal(err)
				}
			} else {
				copy(b, a)
			}
			if !sameBits(reflect.ValueOf(a), reflect.ValueOf(f)) || !sameBits(reflect.ValueOf(b), reflect.ValueOf(f)) {
				t.Fatalf("#%d: an arena read back changed", i)
			}
		}
	}
}
