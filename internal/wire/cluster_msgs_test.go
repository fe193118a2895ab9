package wire

import (
	"bytes"
	"reflect"
	"testing"
)

func roundTrip(t *testing.T, env *Envelope) *Envelope {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMsg(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestGradFrameRoundTrip(t *testing.T) {
	fr := &GradFrame{
		Rank:   3,
		Epoch:  7,
		Step:   1234,
		BatchN: 32,
		Loss:   0.125,
		Grads:  []float32{0.5, -1.25, 3e-8, 0},
	}
	got := roundTrip(t, &Envelope{Type: MsgGradFrame, GradFrame: fr})
	if got.Type != MsgGradFrame || got.GradFrame == nil {
		t.Fatalf("round trip lost the frame: %+v", got)
	}
	if !reflect.DeepEqual(got.GradFrame, fr) {
		t.Fatalf("grad frame mutated: %+v vs %+v", got.GradFrame, fr)
	}
}

func TestGradFramePassRoundTrip(t *testing.T) {
	fr := &GradFrame{Rank: 1, Epoch: 2, Step: 9}
	got := roundTrip(t, &Envelope{Type: MsgGradFrame, GradFrame: fr})
	if got.GradFrame == nil || got.GradFrame.BatchN != 0 || got.GradFrame.Grads != nil {
		t.Fatalf("pass frame mutated: %+v", got.GradFrame)
	}
}

// TestParamBcastRoundTrip: the full sync carries its four arenas and both
// counters; an optimizer that has not stepped has no moments, and they
// come back nil.
func TestParamBcastRoundTrip(t *testing.T) {
	sync := &ParamBcast{Step: 56, Sync: true, Loss: 1.5, AdamStep: 40,
		Params: []float32{1, 2}, Target: []float32{3, 4}, M: []float32{5, 6}, V: []float32{7, 8}}
	got := roundTrip(t, &Envelope{Type: MsgParamBcast, ParamBcast: sync})
	if got.Type != MsgParamBcast || !reflect.DeepEqual(got.ParamBcast, sync) {
		t.Fatalf("sync bcast mutated: %+v", got.ParamBcast)
	}

	fresh := &ParamBcast{Step: 55, Sync: true, Params: []float32{1, 2, 3}, Target: []float32{1, 2, 3}}
	got = roundTrip(t, &Envelope{Type: MsgParamBcast, ParamBcast: fresh})
	if !reflect.DeepEqual(got.ParamBcast, fresh) {
		t.Fatalf("sync of a fresh optimizer mutated: %+v", got.ParamBcast)
	}
	if got.ParamBcast.M != nil || got.ParamBcast.V != nil || got.ParamBcast.AdamStep != 0 {
		t.Fatalf("a fresh optimizer's sync must carry no moments: %+v", got.ParamBcast)
	}
}

func TestMsgTypeStringsForClusterPlane(t *testing.T) {
	if MsgGradFrame.String() != "grad-frame" || MsgParamBcast.String() != "param-bcast" {
		t.Fatalf("unexpected names: %s, %s", MsgGradFrame, MsgParamBcast)
	}
}
