package wire

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// sameBits is reflect.DeepEqual for messages, except that floats compare
// by bit pattern (NaN payloads and −0 must survive) and a nil slice
// equals an empty one (both travel as count 0).
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32:
		return math.Float32bits(a.Interface().(float32)) == math.Float32bits(b.Interface().(float32))
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Ptr:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// gen draws message fields from pools weighted towards the edge cases.
type gen struct{ *rand.Rand }

func (g gen) int64() int64 {
	edge := []int64{0, 1, -1, 63, 64, -64, -65, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	if g.Intn(3) == 0 {
		return int64(g.Uint64())
	}
	return edge[g.Intn(len(edge))]
}

func (g gen) uint64() uint64 {
	edge := []uint64{0, 1, 127, 128, math.MaxUint64, 1 << 63}
	if g.Intn(3) == 0 {
		return g.Uint64()
	}
	return edge[g.Intn(len(edge))]
}

func (g gen) float64() float64 {
	edge := []uint64{
		0, 1 << 63, // ±0
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000001, 0x7ff0000000000001, 0xfff8dead0000beef, // quiet, signalling and payload NaNs
		1, 0x7fefffffffffffff, // smallest denormal, largest finite
	}
	if g.Intn(3) == 0 {
		return math.Float64frombits(g.Uint64())
	}
	return math.Float64frombits(edge[g.Intn(len(edge))])
}

func (g gen) float32() float32 {
	edge := []uint32{0, 1 << 31, 0x7f800000, 0xff800000, 0x7fc00001, 0x7f800001, 0xffc0beef, 1, 0x7f7fffff}
	if g.Intn(3) == 0 {
		return math.Float32frombits(g.Uint32())
	}
	return math.Float32frombits(edge[g.Intn(len(edge))])
}

func (g gen) string() string {
	edge := []string{"", "x", "monitor+control", "nul\x00inside", "ünïcödé ✓", string(make([]byte, 300))}
	return edge[g.Intn(len(edge))]
}

// length picks nil, empty, tiny, or a size around one of the given
// boundaries.
func (g gen) length(boundaries ...int) int {
	switch g.Intn(4) {
	case 0:
		return 0
	case 1:
		return 1 + g.Intn(5)
	default:
		return max(0, boundaries[g.Intn(len(boundaries))]+g.Intn(5)-2)
	}
}

func (g gen) float64s(n int) []float64 {
	if n == 0 && g.Intn(2) == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = g.float64()
	}
	return out
}

func (g gen) float32s(n int) []float32 {
	if n == 0 && g.Intn(2) == 0 {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = g.float32()
	}
	return out
}

func (g gen) envelope(t MsgType) *Envelope {
	env := &Envelope{Type: t}
	// Arena lengths straddle the head read (maxBulkHead) and the chunk
	// size, where the streaming reader and writer change buffers.
	arena := []int{maxBulkHead / 4, BulkChunk / 4, 2*BulkChunk/4 + 1}
	switch t {
	case MsgHello:
		env.Hello = &Hello{NodeID: int(g.int64()), Role: g.string(), NumPIs: int(g.int64()), Hostname: g.string(), Epoch: g.uint64(), Proto: ProtoVersion}
	case MsgIndicators:
		n := g.length(44, 1000)
		m := &Indicators{NodeID: int(g.int64()), Tick: g.int64(), Epoch: g.uint64(), Values: g.float64s(n)}
		if m.Values != nil {
			m.Indices = make([]int, n) // not monotone: deltas of either sign and any size
			for i := range m.Indices {
				m.Indices[i] = int(g.int64())
			}
		}
		env.Indicators = m
	case MsgAction:
		env.Action = &Action{Tick: g.int64(), ID: int(g.int64()), Values: g.float64s(g.length(2, 1000))}
	case MsgAck:
		env.Ack = &Ack{NodeID: int(g.int64()), Tick: g.int64(), OK: g.Intn(2) == 0, Error: g.string()}
	case MsgWorkloadChange:
		env.WorkloadChange = &WorkloadChange{Tick: g.int64(), Name: g.string()}
	case MsgHeartbeat:
		env.Heartbeat = &Heartbeat{NodeID: int(g.int64()), Epoch: g.uint64()}
	case MsgGradFrame:
		env.GradFrame = &GradFrame{Rank: int(g.int64()), Epoch: g.uint64(), Step: g.int64(), BatchN: int(g.int64()), Loss: g.float64(), Grads: g.float32s(g.length(arena...))}
	case MsgParamBcast:
		env.ParamBcast = &ParamBcast{Step: g.int64(), Sync: g.Intn(2) == 0, Loss: g.float64(), AdamStep: g.int64(),
			Params: g.float32s(g.length(arena...)), Target: g.float32s(g.length(arena...)),
			M: g.float32s(g.length(arena...)), V: g.float32s(g.length(arena...))}
	}
	return env
}

// Property: every message type survives the codec bit for bit, through
// the one-shot pair (Encode / ReadMsg) and through the per-connection
// pair (Writer / Reader), which must also produce the same bytes.
func TestRoundTripProperty(t *testing.T) {
	g := gen{rand.New(rand.NewSource(4))}
	var stream bytes.Buffer
	w, r := NewWriter(&stream), NewReader(&stream)
	for typ := MsgHello; typ <= MsgParamBcast; typ++ {
		for i := 0; i < 150; i++ {
			env := g.envelope(typ)
			frame, err := Encode(env)
			if err != nil {
				t.Fatalf("%v #%d: %v", typ, i, err)
			}
			got, err := ReadMsg(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("%v #%d: %v", typ, i, err)
			}
			if !sameBits(reflect.ValueOf(env), reflect.ValueOf(got)) {
				t.Fatalf("%v #%d: one-shot round trip changed the message:\n%+v\n%+v", typ, i, env, got)
			}
			n, err := w.Write(env)
			if err != nil || n != len(frame) || !bytes.Equal(stream.Bytes(), frame) {
				t.Fatalf("%v #%d: Writer produced %d bytes (%v), Encode %d", typ, i, n, err, len(frame))
			}
			got, err = r.Read()
			if err != nil {
				t.Fatalf("%v #%d: %v", typ, i, err)
			}
			if !sameBits(reflect.ValueOf(env), reflect.ValueOf(got)) {
				t.Fatalf("%v #%d: streamed round trip changed the message:\n%+v\n%+v", typ, i, env, got)
			}
			if stream.Len() != 0 {
				t.Fatalf("%v #%d: Reader left %d bytes of its frame unread", typ, i, stream.Len())
			}
		}
	}
}

// A zero-length slice decodes as nil whichever way it was spelled:
// receivers test arenas against nil (ParamBcast.Target, GradFrame.Grads).
func TestEmptySliceDecodesAsNil(t *testing.T) {
	for _, target := range [][]float32{nil, {}} {
		got := roundTrip(t, &Envelope{Type: MsgParamBcast, ParamBcast: &ParamBcast{Params: []float32{1}, Target: target}})
		if got.ParamBcast.Target != nil {
			t.Fatalf("Target %#v decoded as %#v, want nil", target, got.ParamBcast.Target)
		}
	}
	got := roundTrip(t, &Envelope{Type: MsgIndicators, Indicators: &Indicators{Indices: []int{}, Values: []float64{}}})
	if got.Indicators.Indices != nil || got.Indicators.Values != nil {
		t.Fatalf("empty indicators decoded as %#v", got.Indicators)
	}
}

// The Writer must not stage a whole bulk frame, and neither side may
// keep an oversized buffer after one oversized message.
func TestBuffersStayBounded(t *testing.T) {
	var stream bytes.Buffer
	w, r := NewWriter(&stream), NewReader(&stream)
	big := &Envelope{Type: MsgGradFrame, GradFrame: &GradFrame{Rank: 1, Grads: make([]float32, 200_000)}}
	if _, err := w.Write(big); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) > retainBytes || cap(r.buf) > retainBytes {
		t.Fatalf("a 0.8 MB frame left buffers of %d (writer) and %d (reader) bytes", cap(w.buf), cap(r.buf))
	}
	wide := &Envelope{Type: MsgAction, Action: &Action{Values: make([]float64, 100_000)}}
	if _, err := w.Write(wide); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) > retainBytes || cap(r.buf) > retainBytes {
		t.Fatalf("a 0.8 MB action left buffers of %d (writer) and %d (reader) bytes", cap(w.buf), cap(r.buf))
	}
}

// replay is an endless stream of one frame, without allocating.
type replay struct {
	frame []byte
	off   int
}

func (p *replay) Read(b []byte) (int, error) {
	if p.off == len(p.frame) {
		p.off = 0
	}
	n := copy(b, p.frame[p.off:])
	p.off += n
	return n, nil
}

// Steady state on one connection allocates nothing: the Writer reuses
// its buffer (and streams arenas through it), the Reader its buffer and
// its decoded Indicators.
func TestSteadyStateAllocs(t *testing.T) {
	ind := &Indicators{NodeID: 3, Tick: 1, Epoch: 2, Indices: []int{0, 3, 4, 7, 9}, Values: []float64{1, 2, 3, 4, 5}}
	hb := &Heartbeat{NodeID: 3, Epoch: 2}
	gf := &GradFrame{Rank: 1, Epoch: 1, Step: 1, BatchN: 32, Loss: 1, Grads: make([]float32, 182_000)}
	w := NewWriter(io.Discard)
	writes := map[string]func(){
		"Writer/indicators": func() { ind.Tick++; w.Write(&Envelope{Type: MsgIndicators, Indicators: ind}) },
		"Writer/heartbeat":  func() { w.Write(&Envelope{Type: MsgHeartbeat, Heartbeat: hb}) },
		"Writer/grad-frame": func() { gf.Step++; w.Write(&Envelope{Type: MsgGradFrame, GradFrame: gf}) },
	}
	for name, f := range writes {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}

	frame, err := Encode(&Envelope{Type: MsgIndicators, Indicators: ind})
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(&replay{frame: frame})
	read := func() {
		env, err := r.Read()
		if err != nil || len(env.Indicators.Values) != len(ind.Values) {
			t.Fatalf("read %+v, %v", env, err)
		}
	}
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("Reader/indicators: %v allocs/op, want 0", n)
	}

	// A gradient frame read into a lent arena: the frame, its envelope
	// and its 0.73 MB of values all land in storage that already exists.
	if frame, err = Encode(&Envelope{Type: MsgGradFrame, GradFrame: gf}); err != nil {
		t.Fatal(err)
	}
	r = NewReader(&replay{frame: frame})
	arena := make([]float32, len(gf.Grads))
	r.LendGrads(func(int) []float32 { return arena })
	read = func() {
		env, err := r.Read()
		if err != nil || &env.GradFrame.Grads[0] != &arena[0] || env.GradFrame.Step != gf.Step {
			t.Fatalf("read %+v, %v", env, err)
		}
	}
	if n := testing.AllocsPerRun(20, read); n != 0 {
		t.Errorf("Reader/lent grad-frame: %v allocs/op, want 0", n)
	}
}

// TestFloatSlabsMatchLoop holds the bulk float converters to the
// per-element loops they short-cut on little-endian targets: the same
// bytes out and the same bits back for arbitrary bit patterns —
// signalling and quiet NaNs with payloads, ±0, denormals, ±Inf — at
// every length around the small sizes, appended behind an existing
// prefix, and decoded from a source at an odd byte offset.
func TestFloatSlabsMatchLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	special32 := []uint32{0x7fc00001, 0xffc12345, 0x7f800001, 0x7f800000, 0xff800000, 0x80000000, 1, 0x007fffff}
	special64 := []uint64{0x7ff8000000000001, 0xfff8123456789abc, 0x7ff0000000000001, 0x7ff0000000000000,
		0xfff0000000000000, 0x8000000000000000, 1, 0x000fffffffffffff}
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 64, 1001} {
		f32, f64 := make([]float32, n), make([]float64, n)
		for i := range f32 {
			f32[i] = math.Float32frombits(rng.Uint32())
			f64[i] = math.Float64frombits(rng.Uint64())
			if i < len(special32) {
				f32[i], f64[i] = math.Float32frombits(special32[i]), math.Float64frombits(special64[i])
			}
		}
		prefix := []byte{0xAA, 0xBB, 0xCC}

		got, want := AppendFloat32s(bytes.Clone(prefix), f32), appendFloat32sLoop(bytes.Clone(prefix), f32)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: AppendFloat32s differs from the per-element loop", n)
		}
		back, ref := make([]float32, n), make([]float32, n)
		Float32s(back, got[len(prefix):]) // 3 bytes in: not 4-aligned
		float32sLoop(ref, want[len(prefix):])
		for i := range f32 {
			if math.Float32bits(back[i]) != math.Float32bits(f32[i]) || math.Float32bits(ref[i]) != math.Float32bits(f32[i]) {
				t.Fatalf("n=%d: float32 %d came back as %x / %x, sent %x", n, i,
					math.Float32bits(back[i]), math.Float32bits(ref[i]), math.Float32bits(f32[i]))
			}
		}

		got, want = AppendFloat64s(bytes.Clone(prefix), f64), appendFloat64sLoop(bytes.Clone(prefix), f64)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: AppendFloat64s differs from the per-element loop", n)
		}
		back64, ref64 := make([]float64, n), make([]float64, n)
		Float64s(back64, got[len(prefix):])
		float64sLoop(ref64, want[len(prefix):])
		for i := range f64 {
			if math.Float64bits(back64[i]) != math.Float64bits(f64[i]) || math.Float64bits(ref64[i]) != math.Float64bits(f64[i]) {
				t.Fatalf("n=%d: float64 %d came back as %x / %x, sent %x", n, i,
					math.Float64bits(back64[i]), math.Float64bits(ref64[i]), math.Float64bits(f64[i]))
			}
		}
	}
	// A source longer than dst is read only as far as dst reaches.
	dst := []float32{1, 2}
	Float32s(dst[:1], AppendFloat32s(nil, []float32{5, 6}))
	if dst[0] != 5 || dst[1] != 2 {
		t.Fatalf("Float32s wrote past dst: %v", dst)
	}
}
