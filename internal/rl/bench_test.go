package rl

import (
	"math/rand"
	"reflect"
	"testing"

	"capes/internal/nn"
	"capes/internal/replay"
	"capes/internal/tensor"
)

// makeBenchBatch fills a replay.Batch directly so the benchmark isolates
// TrainStep from the sampler.
func makeBenchBatch[E tensor.Element](rng *rand.Rand, n, width, nActions int) *replay.Batch[E] {
	b := &replay.Batch[E]{
		States:     make([]E, n*width),
		NextStates: make([]E, n*width),
		Actions:    make([]int, n),
		Rewards:    make([]E, n),
		N:          n,
		Width:      width,
	}
	for i := range b.States {
		b.States[i] = E(rng.Float64()*2 - 1)
		b.NextStates[i] = E(rng.Float64()*2 - 1)
	}
	for i := 0; i < n; i++ {
		b.Actions[i] = rng.Intn(nActions)
		b.Rewards[i] = E(rng.Float64())
	}
	return b
}

func benchAgent[E tensor.Element](b *testing.B, obsWidth, nActions int) *Agent[E] {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	agent, err := NewAgent[E](DefaultConfig(), nil, obsWidth, nActions, rng)
	if err != nil {
		b.Fatal(err)
	}
	return agent
}

// BenchmarkTrainStep is the Table-2 "CPU time of one training step" cost:
// one 32-observation minibatch through the paper-shaped Q-network
// (two hidden layers the width of the observation), at the deployed
// float32 precision.
func BenchmarkTrainStep(b *testing.B) {
	for _, w := range []int{64, 256} {
		name := map[int]string{64: "obs64", 256: "obs256"}[w]
		b.Run(name+"/f32", func(b *testing.B) { benchTrainStep[float32](b, w) })
	}
	// The repo benchmark's paper-rig-train network: 5 nodes × 10 PIs ×
	// 10 observation ticks, 500-500-500-5.
	b.Run("obs500/f32", func(b *testing.B) { benchTrainStep[float32](b, 500) })
}

func benchTrainStep[E tensor.Element](b *testing.B, w int) {
	const nActions = 5
	agent := benchAgent[E](b, w, nActions)
	batch := makeBenchBatch[E](rand.New(rand.NewSource(2)), agent.Config().MinibatchSize, w, nActions)
	// Warm the one-time buffers (optimizer moments, layer scratch) so
	// -benchmem reports the steady state.
	if _, err := agent.TrainStep(batch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.TrainStep(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTrainStepAllocFree pins the zero-steady-state-allocation property
// of the training and action hot paths at both precisions (the
// benchmarks report it, but a test fails CI if it regresses). The two
// are interleaved deliberately: the batch-1 action forward must not
// evict the minibatch buffers.
func TestTrainStepAllocFree(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testTrainStepAllocFree[float64](t) })
	t.Run("float32", func(t *testing.T) { testTrainStepAllocFree[float32](t) })
}

func testTrainStepAllocFree[E tensor.Element](t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	agent, err := NewAgent[E](DefaultConfig(), nil, 64, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	batch := makeBenchBatch[E](rand.New(rand.NewSource(6)), agent.Config().MinibatchSize, 64, 5)
	obs := batch.States[:64]
	if _, err := agent.TrainStep(batch); err != nil { // warm one-time buffers
		t.Fatal(err)
	}
	agent.SelectAction(obs, 0)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := agent.TrainStep(batch); err != nil {
			t.Fatal(err)
		}
		agent.SelectAction(obs, 1)
	})
	if allocs != 0 {
		t.Fatalf("TrainStep+SelectAction (%s) allocate %v per step in steady state", agent.Online.Precision(), allocs)
	}
}

// TestTargetNetworksCarryNoGradients: only the online network is ever
// differentiated, so after real train steps the target network must
// still have no gradient arena (0.5M dead float32s at the rig shape).
// The arena is nn's private field; reflection reads its nil-ness
// without widening nn's API for one assertion.
func TestTargetNetworksCarryNoGradients(t *testing.T) {
	hasGrads := func(m *nn.MLP[float32]) bool {
		return !reflect.ValueOf(m).Elem().FieldByName("gradData").IsNil()
	}
	cfg := DefaultConfig()
	agent, err := NewAgent[float32](cfg, nil, 64, 5, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	batch := makeBenchBatch[float32](rand.New(rand.NewSource(10)), cfg.MinibatchSize, 64, 5)
	for i := 0; i < 5; i++ {
		if _, err := agent.TrainStep(batch); err != nil {
			t.Fatal(err)
		}
	}
	if !hasGrads(agent.Online) {
		t.Fatal("the trained online network has no gradient arena")
	}
	if hasGrads(agent.Target) {
		t.Fatal("the target network allocated a gradient arena")
	}
}

// BenchmarkSelectAction measures the 1×N greedy action path (ε=0, so
// every iteration runs the forward pass) at the deployed float32
// precision.
func BenchmarkSelectAction(b *testing.B) {
	b.Run("f32", func(b *testing.B) { benchSelectAction[float32](b) })
}

func benchSelectAction[E tensor.Element](b *testing.B) {
	const obsWidth, nActions = 256, 5
	agent := benchAgent[E](b, obsWidth, nActions)
	rng := rand.New(rand.NewSource(3))
	obs := make([]E, obsWidth)
	for i := range obs {
		obs[i] = E(rng.Float64()*2 - 1)
	}
	agent.SelectAction(obs, 0) // warm the batch-1 forward buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.SelectAction(obs, int64(i))
	}
}
