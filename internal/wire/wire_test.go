package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	envs := []*Envelope{
		{Type: MsgHello, Hello: &Hello{NodeID: 3, Role: "monitor", NumPIs: 10, Hostname: "client-3", Proto: ProtoVersion}},
		{Type: MsgIndicators, Indicators: &Indicators{NodeID: 1, Tick: 42, Indices: []int{0, 5}, Values: []float64{1.5, -2}}},
		{Type: MsgAction, Action: &Action{Tick: 7, Values: []float64{8, 20000}, ID: 2}},
		{Type: MsgAck, Ack: &Ack{NodeID: 2, Tick: 7, OK: false, Error: "boom"}},
		{Type: MsgWorkloadChange, WorkloadChange: &WorkloadChange{Tick: 9, Name: "fileserver"}},
	}
	for _, env := range envs {
		var buf bytes.Buffer
		if err := WriteMsg(&buf, env); err != nil {
			t.Fatal(err)
		}
		got, err := ReadMsg(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != env.Type {
			t.Fatalf("type %v, want %v", got.Type, env.Type)
		}
		switch env.Type {
		case MsgHello:
			if *got.Hello != *env.Hello {
				t.Fatalf("hello = %+v", got.Hello)
			}
		case MsgAction:
			if got.Action.Tick != 7 || got.Action.Values[1] != 20000 || got.Action.ID != 2 {
				t.Fatalf("action = %+v", got.Action)
			}
		case MsgAck:
			if got.Ack.Error != "boom" || got.Ack.OK {
				t.Fatalf("ack = %+v", got.Ack)
			}
		case MsgWorkloadChange:
			if got.WorkloadChange.Name != "fileserver" {
				t.Fatalf("wc = %+v", got.WorkloadChange)
			}
		}
	}
}

func TestHeartbeatAndEpochRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	hb := &Envelope{Type: MsgHeartbeat, Heartbeat: &Heartbeat{NodeID: 4, Epoch: 9}}
	if err := WriteMsg(&buf, hb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgHeartbeat || got.Heartbeat == nil || got.Heartbeat.NodeID != 4 || got.Heartbeat.Epoch != 9 {
		t.Fatalf("heartbeat = %+v", got.Heartbeat)
	}

	hello := &Envelope{Type: MsgHello, Hello: &Hello{NodeID: 1, Role: "monitor", NumPIs: 3, Epoch: 7, Proto: ProtoVersion}}
	if err := WriteMsg(&buf, hello); err != nil {
		t.Fatal(err)
	}
	got, err = ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hello.Epoch != 7 || got.Hello.Proto != ProtoVersion {
		t.Fatalf("hello = %+v", got.Hello)
	}

	ind := &Envelope{Type: MsgIndicators, Indicators: &Indicators{NodeID: 1, Tick: 5, Epoch: 7, Indices: []int{0}, Values: []float64{1}}}
	if err := WriteMsg(&buf, ind); err != nil {
		t.Fatal(err)
	}
	got, err = ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Indicators.Epoch != 7 {
		t.Fatalf("indicators = %+v", got.Indicators)
	}
}

// A frame whose count field promises far more elements than the frame
// has bytes for must be refused before anything is allocated for them.
func TestReadMsgRejectsOversizedCount(t *testing.T) {
	const claimed = 1 << 30
	action := binary.AppendUvarint([]byte{0, 0, 0, 0, byte(MsgAction), 2, 4}, claimed) // tick 1, id 2
	action = relen(append(action, make([]byte, 20-len(action))...))

	grads := []byte{0, 0, 0, 0, byte(MsgGradFrame), 2, 1, 2, 2} // rank, epoch, step, batch
	grads = append(grads, make([]byte, 8)...)                   // loss
	grads = relen(append(binary.AppendUvarint(grads, claimed), 0, 0, 0, 0))

	for name, frame := range map[string][]byte{"action": action, "grad-frame": grads} {
		var err error
		got := allocatedBytes(func() { _, err = ReadMsg(bytes.NewReader(frame)) })
		if err == nil {
			t.Fatalf("%s: a %d-byte frame claiming 2^30 values must be rejected", name, len(frame))
		}
		if got > 64<<10 {
			t.Fatalf("%s: rejected frame still allocated %d bytes", name, got)
		}
	}
}

func TestReadMsgRejectsMalformedFrames(t *testing.T) {
	valid, err := Encode(&Envelope{Type: MsgAck, Ack: &Ack{NodeID: 1, Tick: 2, OK: true, Error: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"unknown type 0":  {0, 0, 0, 1, 0},
		"unknown type 9":  {0, 0, 0, 2, 9, 0},
		"trailing byte":   relen(append(bytes.Clone(valid), 0)),
		"truncated field": relen(bytes.Clone(valid[:len(valid)-1])),
		"bool out of range": func() []byte {
			b := bytes.Clone(valid)
			b[7] = 2
			return b
		}(),
	}
	for name, frame := range cases {
		if env, err := ReadMsg(bytes.NewReader(frame)); err == nil {
			t.Errorf("%s: accepted as %+v", name, env)
		}
	}
	if _, err := Encode(&Envelope{Type: MsgType(42)}); err == nil {
		t.Error("encoding an unknown message type must fail")
	}
	if _, err := Encode(&Envelope{Type: MsgAction}); err == nil {
		t.Error("encoding an envelope without its body must fail")
	}
	if _, err := Encode(&Envelope{Type: MsgIndicators, Indicators: &Indicators{Indices: []int{1}}}); err == nil {
		t.Error("encoding mismatched indices/values must fail")
	}
}

// A Hello from another protocol version decodes to just that version —
// whatever follows is that version's business — so the receiver can
// refuse it by name.
func TestHelloFromOtherVersionCarriesOnlyProto(t *testing.T) {
	frame := []byte{0, 0, 0, 0, byte(MsgHello)}
	frame = binary.AppendVarint(frame, ProtoVersion+1)
	frame = relen(append(frame, "some later layout"...))
	env, err := ReadMsg(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != MsgHello || *env.Hello != (Hello{Proto: ProtoVersion + 1}) {
		t.Fatalf("hello = %+v", env.Hello)
	}
}

func TestReadMsgRejectsBadLength(t *testing.T) {
	// Zero length.
	if _, err := ReadMsg(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero length must fail")
	}
	// Absurd length.
	if _, err := ReadMsg(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Fatal("oversized length must fail")
	}
	// Truncated payload.
	if _, err := ReadMsg(bytes.NewReader([]byte{0, 0, 0, 10, 1, 2})); err != io.ErrUnexpectedEOF {
		t.Fatal("truncated payload must return unexpected EOF")
	}
}

func TestDiffEncoderFirstTickSendsEverything(t *testing.T) {
	e := NewDiffEncoder(0, 4)
	msg, err := e.Encode(1, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Indices) != 4 {
		t.Fatalf("first tick sent %d of 4 PIs", len(msg.Indices))
	}
}

func TestDiffEncoderOnlySendsChanges(t *testing.T) {
	e := NewDiffEncoder(0, 4)
	e.Encode(1, []float64{1, 2, 3, 4})
	msg, err := e.Encode(2, []float64{1, 2.5, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Indices) != 1 || msg.Indices[0] != 1 || msg.Values[0] != 2.5 {
		t.Fatalf("diff = %+v", msg)
	}
	// Unchanged tick sends nothing.
	msg2, _ := e.Encode(3, []float64{1, 2.5, 3, 4})
	if len(msg2.Indices) != 0 {
		t.Fatalf("unchanged tick sent %d entries", len(msg2.Indices))
	}
}

func TestDiffEncoderWidthMismatch(t *testing.T) {
	e := NewDiffEncoder(0, 4)
	if _, err := e.Encode(1, []float64{1, 2}); err == nil {
		t.Fatal("width mismatch must fail")
	}
}

// Property: encoder→decoder round trip always reconstructs the full PI
// vector regardless of change patterns.
func TestDiffRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const w = 8
		enc := NewDiffEncoder(1, w)
		dec := NewDiffDecoder(w)
		cur := make([]float64, w)
		for tick := int64(1); tick <= 30; tick++ {
			// Mutate a random subset.
			for i := range cur {
				if rng.Float64() < 0.3 {
					cur[i] = rng.Float64()
				}
			}
			msg, err := enc.Encode(tick, cur)
			if err != nil {
				return false
			}
			got, err := dec.Apply(msg)
			if err != nil {
				return false
			}
			for i := range cur {
				if got[i] != cur[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDiffDecoderRejectsBadIndices(t *testing.T) {
	d := NewDiffDecoder(2)
	if _, err := d.Apply(&Indicators{Indices: []int{5}, Values: []float64{1}}); err == nil {
		t.Fatal("out-of-range index must fail")
	}
	if _, err := d.Apply(&Indicators{Indices: []int{0, 1}, Values: []float64{1}}); err == nil {
		t.Fatal("mismatched lengths must fail")
	}
}

// The differential protocol must keep steady-state messages small — the
// Table 2 claim (~186 B per client per second): ≈ 9 B per changed PI
// (one delta byte, eight value bytes) on a ≈ 10 B header.
func TestMessageSizeSmallInSteadyState(t *testing.T) {
	enc := NewDiffEncoder(0, 44) // the paper's 44 PIs per client
	pis := make([]float64, 44)
	rng := rand.New(rand.NewSource(1))
	for i := range pis {
		pis[i] = rng.Float64()
	}
	enc.Encode(1, pis)
	// Steady state: a handful of indicators move per tick.
	for i := 0; i < 6; i++ {
		pis[rng.Intn(44)] = rng.Float64()
	}
	msg, _ := enc.Encode(2, pis)
	n, err := MessageBytes(&Envelope{Type: MsgIndicators, Indicators: msg})
	if err != nil {
		t.Fatal(err)
	}
	if changed := len(msg.Indices); changed == 0 || changed > 6 || n > 12+9*changed {
		t.Fatalf("steady-state message with %d changed PIs is %d bytes, want ≤ %d", changed, n, 12+9*changed)
	}
	// And far smaller than a naive full-vector message.
	full := &Indicators{NodeID: 0, Tick: 2}
	for i, v := range pis {
		full.Indices = append(full.Indices, i)
		full.Values = append(full.Values, v)
	}
	fn, _ := MessageBytes(&Envelope{Type: MsgIndicators, Indicators: full})
	if fn > 12+9*44 || n*4 >= fn {
		t.Fatalf("diff message %d B vs full 44-PI message %d B", n, fn)
	}
}

func TestMsgTypeString(t *testing.T) {
	for m := MsgHello; m <= MsgHeartbeat; m++ {
		if m.String() == "" {
			t.Fatal("unnamed message type")
		}
	}
	if MsgType(99).String() == "" {
		t.Fatal("unknown type must render")
	}
}

// End-to-end over a real TCP socket.
func TestOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan *Envelope, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		env, err := ReadMsg(conn)
		if err != nil {
			return
		}
		done <- env
		WriteMsg(conn, &Envelope{Type: MsgAck, Ack: &Ack{OK: true}})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	want := &Envelope{Type: MsgIndicators, Indicators: &Indicators{NodeID: 9, Tick: 5, Indices: []int{0}, Values: []float64{3.14}}}
	if err := WriteMsg(conn, want); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got.Indicators.NodeID != 9 || got.Indicators.Values[0] != 3.14 {
		t.Fatalf("got %+v", got.Indicators)
	}
	ack, err := ReadMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != MsgAck || !ack.Ack.OK {
		t.Fatalf("ack = %+v", ack)
	}
}
