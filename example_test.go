package capes_test

import (
	"fmt"
	"math"
	"math/rand"

	"capes"
)

// toyServer is a user-defined target system: requests/s and latency as
// functions of worker count and batch size, with noise. Optimal near
// workers=24, batch=8; the defaults (workers=4, batch=1) are pessimal.
type toyServer struct {
	workers, batch        float64
	rng                   *rand.Rand
	throughput, latencyMs float64
}

func (s *toyServer) step() {
	// Throughput rises with workers until contention; batching amortizes
	// overhead but inflates latency.
	contention := 1 + math.Pow(s.workers/32, 3)
	base := 1000 * s.workers / contention * (1 + 0.4*math.Log1p(s.batch))
	s.throughput = base * (1 + s.rng.NormFloat64()*0.05)
	s.latencyMs = (2 + s.batch*0.8) * contention * (1 + s.rng.NormFloat64()*0.05)
}

// Tune a user-defined system through the Collector/Controller adapter
// pair — CAPES "can be used to tune virtually any parameters as long as
// an adapter function is provided" (§A.1). The engine only ever sees the
// adapter functions, never the model. The objective is multi-objective
// (§6): throughput with a latency penalty, via WeightedObjective.
func ExampleNewEngine_custom() {
	srv := &toyServer{workers: 4, batch: 1, rng: rand.New(rand.NewSource(5))}
	srv.step()

	space, err := capes.NewActionSpace(
		capes.Tunable{Name: "workers", Min: 1, Max: 64, Step: 2, Default: 4},
		capes.Tunable{Name: "batch_size", Min: 1, Max: 32, Step: 1, Default: 1},
	)
	if err != nil {
		panic(err)
	}
	// Two performance indicators per tick, normalized throughput and
	// latency, plus the two knob values: what a Monitoring Agent adapter
	// would report.
	collector := func() (capes.Frame, error) {
		return capes.Frame{srv.throughput / 50000, srv.latencyMs / 100, srv.workers / 64, srv.batch / 32}, nil
	}
	controller := func(vals []float64) error {
		srv.workers, srv.batch = vals[0], vals[1]
		return nil
	}
	objective, err := capes.WeightedObjective(
		[]capes.Objective{capes.SumIndices(0), capes.SumIndices(1)}, []float64{1.0, -2.0})
	if err != nil {
		panic(err)
	}

	const ticks = 2000
	hyper := capes.DefaultHyperparameters()
	hyper.TicksPerObservation = 4
	hyper.ExplorationPeriod = ticks / 2
	hyper.AdamLearningRate = 1e-3
	eng, err := capes.NewEngine(capes.Config{
		Hyper:      hyper,
		Space:      space,
		Objective:  objective,
		RewardMode: capes.RewardDelta,
		Checker:    capes.RangeChecker(space.Tunables),
		FrameWidth: 4,
		Seed:       7,
		Training:   true,
		Tuning:     true,
	}, collector, controller)
	if err != nil {
		panic(err)
	}
	for tick := int64(1); tick <= ticks; tick++ {
		srv.step()
		eng.Tick(tick)
	}

	st := eng.Stats()
	fmt.Println("tunables:", space.Tunables[0].Name, space.Tunables[1].Name)
	fmt.Printf("%d ticks, %d train steps, %d replay records\n", ticks, st.TrainSteps, st.ReplayRecords)
	// Output:
	// tunables: workers batch_size
	// 2000 ticks, 1937 train steps, 2000 replay records
}

// Build the simulated 5-client/4-server Lustre-like cluster, attach CAPES
// and run a scaled 12-hour training session on the paper's headline
// workload (1:9 write-heavy random I/O). Env.MeasureTuned and
// Env.MeasureBaseline then compare the tuned throughput against the
// Lustre defaults.
func ExampleNewEnv_quickstart() {
	opts := capes.DefaultExperimentOptions()
	opts.Scale = 0.003

	// The Figure 2 headline workload: 1 part random read to 9 parts
	// random write, five threads per client.
	env, err := capes.NewEnv(opts, capes.NewRandRW(1, 9, 3))
	if err != nil {
		panic(err)
	}
	env.Train(12)

	st := env.Engine.Stats()
	tunables := capes.LustreTunables()
	fmt.Println("tunables:", tunables[0].Name, tunables[1].Name)
	fmt.Printf("%d ticks, %d train steps, %d replay records\n", opts.Ticks(12), st.TrainSteps, st.ReplayRecords)
	// Output:
	// tunables: max_rpc_in_flight io_rate_limit
	// 129 ticks, 66 train steps, 129 replay records
}
