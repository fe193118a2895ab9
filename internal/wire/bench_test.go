package wire

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// benchMessages are the messages the control loop and the gradient
// plane actually carry: a steady-state diff on the benchmark's rig (10
// PIs per node) and on the paper's (44 per client), the action
// broadcast, a follower's gradient frame and a welcome sync for the
// paper-rig model (≈ 182k parameters).
func benchMessages() []struct {
	name string
	env  *Envelope
} {
	rng := rand.New(rand.NewSource(1))
	diff := func(numPIs, changed int) *Indicators {
		enc := NewDiffEncoder(3, numPIs)
		pis := make([]float64, numPIs)
		for i := range pis {
			pis[i] = rng.Float64()
		}
		enc.Encode(1, pis)
		for _, i := range rng.Perm(numPIs)[:changed] {
			pis[i] = rng.Float64()
		}
		msg, _ := enc.Encode(2, pis)
		msg.Epoch = 1
		return msg
	}
	arena := func() []float32 {
		a := make([]float32, 182_000)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
		}
		return a
	}
	return []struct {
		name string
		env  *Envelope
	}{
		{"diff10", &Envelope{Type: MsgIndicators, Indicators: diff(10, 10)}},
		{"diff44", &Envelope{Type: MsgIndicators, Indicators: diff(44, 8)}},
		{"action", &Envelope{Type: MsgAction, Action: &Action{Tick: 1000, ID: 3, Values: []float64{8, 20000}}}},
		{"gradframe182k", &Envelope{Type: MsgGradFrame, GradFrame: &GradFrame{Rank: 1, Epoch: 1, Step: 1000, BatchN: 32, Loss: 0.1, Grads: arena()}}},
		{"syncbcast182k", &Envelope{Type: MsgParamBcast, ParamBcast: &ParamBcast{Step: 1000, Sync: true, Loss: 0.1, AdamStep: 1000,
			Params: arena(), Target: arena(), M: arena(), V: arena()}}},
	}
}

var benchSink int

// BenchmarkEncode: "oneshot" is the package-level Encode (a fresh frame
// per call), "writer" a connection's Writer in steady state.
func BenchmarkEncode(b *testing.B) {
	for _, m := range benchMessages() {
		size, err := MessageBytes(m.env)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.name+"/oneshot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, _ := Encode(m.env)
				benchSink += len(buf)
			}
			b.ReportMetric(float64(size), "msg_B")
		})
		b.Run(m.name+"/writer", func(b *testing.B) {
			w := NewWriter(io.Discard)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, _ := w.Write(m.env)
				benchSink += n
			}
			b.ReportMetric(float64(size), "msg_B")
		})
	}
}

// BenchmarkDecode: "oneshot" is the package-level ReadMsg, "reader" a
// connection's Reader in steady state.
func BenchmarkDecode(b *testing.B) {
	for _, m := range benchMessages() {
		frame, err := Encode(m.env)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.name+"/oneshot", func(b *testing.B) {
			src := bytes.NewReader(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src.Reset(frame)
				env, err := ReadMsg(src)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += int(env.Type)
			}
			b.ReportMetric(float64(len(frame)), "msg_B")
		})
		b.Run(m.name+"/reader", func(b *testing.B) {
			r := NewReader(&replay{frame: frame})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env, err := r.Read()
				if err != nil {
					b.Fatal(err)
				}
				benchSink += int(env.Type)
			}
			b.ReportMetric(float64(len(frame)), "msg_B")
		})
		if m.env.Type != MsgGradFrame {
			continue
		}
		// The gradient plane's way: the arena is lent, nothing is allocated.
		b.Run(m.name+"/lent", func(b *testing.B) {
			r := NewReader(&replay{frame: frame})
			arena := make([]float32, len(m.env.GradFrame.Grads))
			r.LendGrads(func(int) []float32 { return arena })
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env, err := r.Read()
				if err != nil {
					b.Fatal(err)
				}
				benchSink += int(env.Type)
			}
			b.ReportMetric(float64(len(frame)), "msg_B")
		})
	}
}
