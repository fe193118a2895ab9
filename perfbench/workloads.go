package main

import (
	"fmt"

	"capes/internal/storesim"
	"capes/internal/workload"
)

// spec is one named workload: the shape of the session it drives and
// how much set-up it does before the measured window.
type spec struct {
	Name string
	Why  string
	// run measures the workload once.
	run func(w spec, o options) (*result, error)

	Nodes          int   // node agents (input size, not generator parallelism)
	ObsTicks       int   // sampling ticks stacked per observation
	TrainEvery     int64 // one train step per this many ticks
	TrainStart     int64 // first training tick
	ReplayCapacity int   // ring size in ticks; the warm-up saturates it
	Warmup         int64 // untimed ticks before the window (counted in setup_s)
	DetTicks       int64 // ticks of the same-seed determinism check in set-up
	FillTicks      int64 // ticks written straight into the ring in set-up
	SetupSteps     int64 // train steps taken in set-up after the fill
}

const pisPerNode = storesim.NumClientPIs

// traceTicks is the least length of the generated PI trace; ticks wrap
// around it. A workload that fills its ring in set-up gets a trace as
// long as the fill, so the ring does not hold the same ticks many times
// over (a repeating ring compresses several times better on disk).
const traceTicks = 1024

// workloads is the benchmark's fixed set. README.md carries the longer
// reasoning; Why is the one line BENCHMARK.json repeats.
var workloads = []spec{
	{
		Name: "paper-rig-train",
		Why:  "paper rig, 5 nodes x 10 PIs, a train step every tick: the tick is bound by tensor/nn/rl, the codec barely shows",
		run:  runLoop,
		// Training starts once the ring is full, so the warm-up is short
		// and the window starts in the steady state.
		Nodes: 5, ObsTicks: 10, TrainEvery: 1, TrainStart: 512,
		ReplayCapacity: 512, Warmup: 600, DetTicks: 128,
	},
	{
		Name: "wide-ingest",
		Why:  "64 nodes, a train step every 8th tick: 64 messages per tick make wire and agent the cost, the numeric core idles",
		run:  runLoop,
		// 64 messages per tick cost ~17 ms, so the ring and warm-up are
		// sized to fit the run-time cap: 128 ticks saturate it.
		Nodes: 64, ObsTicks: 1, TrainEvery: 8, TrainStart: 64,
		ReplayCapacity: 128, Warmup: 160, DetTicks: 32,
	},
	{
		Name:  "checkpoint-cycle",
		Why:   "save, restore into a second manager, compare, delete: replay and nn as serialisers, the supervisor's rollback cost",
		run:   runCheckpoint,
		Nodes: 5, ObsTicks: 10, TrainEvery: 1, TrainStart: 64,
		ReplayCapacity: 32768, FillTicks: 32768, SetupSteps: 200,
	},
	{
		Name: "cluster-1follower",
		Why:  "leader and one follower as two processes: two 0.5 MB float frames per step through wire, the only user of cluster.go",
		run:  runCluster,
		// One 30-wide node: the PERF.md cluster-bench shape (obs width
		// 300, ~187k parameters). The fill saturates the ring untrained,
		// then every tick is a cluster step.
		Nodes: 3, ObsTicks: 10, TrainEvery: 1, TrainStart: 600,
		ReplayCapacity: 512, FillTicks: 599, SetupSteps: 10,
	},
}

// shortened shrinks a workload to a few nodes, a narrow network and a
// few dozen ticks of set-up: the smoke test checks the plumbing, not
// the numbers.
func (w spec) shortened() spec {
	trainsAfterFill := w.TrainStart > w.FillTicks
	w.Nodes = min(w.Nodes, 4)
	w.ObsTicks = min(w.ObsTicks, 2)
	w.ReplayCapacity = min(w.ReplayCapacity, 32)
	w.TrainStart = min(w.TrainStart, 8)
	w.Warmup = min(w.Warmup, 16)
	w.DetTicks = min(w.DetTicks, 12)
	w.FillTicks = min(w.FillTicks, 32)
	w.SetupSteps = min(w.SetupSteps, 2)
	if w.FillTicks > 0 && trainsAfterFill {
		w.TrainStart = w.FillTicks + 1
	}
	return w
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// piTrace is the generated input: every node's PI vector over the
// trace's ticks, produced by the storage simulator under a random
// read/write mix. The system under test sees only these vectors.
type piTrace struct {
	nodes int
	ticks int64
	data  []float64 // [tick][node][pi]
}

func newPITrace(w spec, seed int64) (*piTrace, error) {
	nodes, ticks := w.Nodes, int64(traceTicks)
	if w.FillTicks > ticks {
		ticks = w.FillTicks
	}
	p := storesim.DefaultParams()
	p.Clients = nodes
	p.Seed = seed
	cluster, err := storesim.New(p, workload.NewRandRW(1, 9, seed))
	if err != nil {
		return nil, err
	}
	tr := &piTrace{nodes: nodes, ticks: ticks, data: make([]float64, int(ticks)*nodes*pisPerNode)}
	for t := int64(0); t < ticks; t++ {
		cluster.Tick(t + 1)
		for n := 0; n < nodes; n++ {
			cluster.ClientPIs(n, tr.row(t+1, n))
		}
	}
	return tr, nil
}

// row is node n's PI vector at tick t (ticks start at 1 and wrap).
func (tr *piTrace) row(t int64, n int) []float64 {
	off := (int((t-1)%tr.ticks)*tr.nodes + n) * pisPerNode
	return tr.data[off : off+pisPerNode]
}

// frame is the whole cluster's frame at tick t.
func (tr *piTrace) frame(t int64) []float64 {
	off := int((t-1)%tr.ticks) * tr.nodes * pisPerNode
	return tr.data[off : off+tr.nodes*pisPerNode]
}
