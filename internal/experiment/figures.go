package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"capes/internal/capes"
	"capes/internal/nn"
	"capes/internal/pilot"
	"capes/internal/replay"
	"capes/internal/storesim"
	"capes/internal/wire"
	"capes/internal/workload"
)

// CIValue is a mean with its 95% confidence half-width (bytes/s).
type CIValue struct {
	Mean float64
	CI   float64
}

func summarize(series []float64) CIValue {
	s, err := pilot.Analyze(series)
	if err != nil {
		return CIValue{Mean: pilot.Mean(series)}
	}
	return CIValue{Mean: s.Mean, CI: s.CI}
}

// ---------------------------------------------------------------------------
// Figure 2: random read/write workloads — baseline vs 12 h vs 24 h training.

// Fig2Row is one ratio's result.
type Fig2Row struct {
	Ratio     string
	Baseline  CIValue
	After12h  CIValue
	After24h  CIValue
	Gain12Pct float64
	Gain24Pct float64
	Window12  float64 // congestion window CAPES converged to at 12 h
	Window24  float64
}

// Fig2Ratios are the evaluated read:write mixes.
var Fig2Ratios = [][2]int{{9, 1}, {4, 1}, {1, 1}, {1, 4}, {1, 9}}

// RunFig2 reproduces Figure 2: for each ratio, measure the untouched
// baseline, train for 12 hours (paper scale) and measure, train to 24
// hours total and measure again.
func RunFig2(o Options) ([]Fig2Row, error) {
	rows := make([]Fig2Row, 0, len(Fig2Ratios))
	for _, ratio := range Fig2Ratios {
		gen := workload.NewRandRW(ratio[0], ratio[1], o.Seed+int64(ratio[0])*100+int64(ratio[1]))
		env, err := NewEnv(o, gen)
		if err != nil {
			return nil, err
		}
		base := env.MeasureBaseline(0.5)
		env.Train(12)
		t12 := env.MeasureTuned(0.5)
		w12 := env.Engine.CurrentValues()[0]
		env.Train(12) // to 24 h total training
		t24 := env.MeasureTuned(0.5)
		w24 := env.Engine.CurrentValues()[0]
		row := Fig2Row{
			Ratio:    fmt.Sprintf("%d:%d", ratio[0], ratio[1]),
			Baseline: summarize(base),
			After12h: summarize(t12),
			After24h: summarize(t24),
			Window12: w12,
			Window24: w24,
		}
		row.Gain12Pct = 100 * (row.After12h.Mean/row.Baseline.Mean - 1)
		row.Gain24Pct = 100 * (row.After24h.Mean/row.Baseline.Mean - 1)
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 3: Filebench file server and sequential write — before/after.

// Fig3Row is one workload's result.
type Fig3Row struct {
	Workload string
	Baseline CIValue
	Tuned    CIValue
	GainPct  float64
	Window   float64
}

// RunFig3 reproduces Figure 3 with 24-hour training (the paper found 12
// hours insufficient for the fileserver workload).
func RunFig3(o Options) ([]Fig3Row, error) {
	gens := []workload.Generator{
		workload.NewFileserver(32, o.Seed+11),
		workload.NewSeqWrite(5, o.Seed+13),
	}
	rows := make([]Fig3Row, 0, len(gens))
	for _, gen := range gens {
		env, err := NewEnv(o, gen)
		if err != nil {
			return nil, err
		}
		base := env.MeasureBaseline(0.5)
		env.Train(24)
		tuned := env.MeasureTuned(0.5)
		row := Fig3Row{
			Workload: gen.Name(),
			Baseline: summarize(base),
			Tuned:    summarize(tuned),
			Window:   env.Engine.CurrentValues()[0],
		}
		row.GainPct = 100 * (row.Tuned.Mean/row.Baseline.Mean - 1)
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 4: overfitting check — three sessions over "two weeks" with
// unrelated file operations (layout perturbation) between them.

// Fig4Session is one of the three spread-out sessions.
type Fig4Session struct {
	Session  int
	Baseline CIValue
	Tuned    CIValue
	GainPct  float64
}

// RunFig4 trains once on the fileserver workload, then replays the
// trained DNN in three sessions with the cluster's layout perturbed
// between sessions (±10% on seek, merge and overload characteristics).
// Each session measures two hours of baseline and two hours of tuned
// throughput, like the paper's four-hour sessions.
func RunFig4(o Options) ([]Fig4Session, error) {
	gen := workload.NewFileserver(32, o.Seed+17)
	env, err := NewEnv(o, gen)
	if err != nil {
		return nil, err
	}
	env.Train(24)
	trainedValues := env.Engine.CurrentValues()

	sessions := make([]Fig4Session, 0, 3)
	for k := 1; k <= 3; k++ {
		env.Cluster.PerturbLayout(o.Seed+int64(100*k), 0.10)
		base := env.MeasureBaseline(2)
		// Restore the trained operating point before the tuned phase —
		// MeasureBaseline resets parameters to the defaults.
		env.Cluster.SetAllWindows(trainedValues[0])
		env.Cluster.SetAllRateLimits(trainedValues[1])
		if err := env.Engine.SetCurrentValues(trainedValues); err != nil {
			return nil, err
		}
		tuned := env.MeasureTuned(2)
		s := Fig4Session{
			Session:  k,
			Baseline: summarize(base),
			Tuned:    summarize(tuned),
		}
		s.GainPct = 100 * (s.Tuned.Mean/s.Baseline.Mean - 1)
		sessions = append(sessions, s)
		trainedValues = env.Engine.CurrentValues()
	}
	return sessions, nil
}

// ---------------------------------------------------------------------------
// Figure 5: prediction error over the training session.

// Fig5Point is one sample of the smoothed prediction error.
type Fig5Point struct {
	Tick int64
	Loss float64
}

// Fig5Result carries the loss series plus the summary statistics the
// harness asserts on (error must decrease after warm-up).
type Fig5Result struct {
	Series     []Fig5Point
	EarlyMean  float64 // mean loss over the first quarter (post warm-up)
	LateMean   float64 // mean loss over the last quarter
	TrainSteps int64
}

// RunFig5 reproduces Figure 5 on the 1:1 random read/write workload.
func RunFig5(o Options) (*Fig5Result, error) {
	env, err := NewEnv(o, workload.NewRandRW(1, 1, o.Seed+19))
	if err != nil {
		return nil, err
	}
	env.Train(12)
	// The loss trace is the telemetry ring's trained samples; NewEnv
	// sizes the ring so the whole session fits.
	res := &Fig5Result{TrainSteps: env.Engine.Stats().TrainSteps}
	for _, p := range env.Engine.History() {
		if p.TrainSteps > 0 {
			res.Series = append(res.Series, Fig5Point{Tick: p.Tick, Loss: p.Loss})
		}
	}
	trace := res.Series
	if len(trace) < 8 {
		return nil, fmt.Errorf("experiment: loss trace too short (%d points)", len(trace))
	}
	q := len(trace) / 4
	var early, late float64
	for i := 0; i < q; i++ {
		early += trace[i].Loss
		late += trace[len(trace)-1-i].Loss
	}
	res.EarlyMean = early / float64(q)
	res.LateMean = late / float64(q)
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 6: the training session's impact on workload throughput.

// Fig6Result compares the overall throughput of a long training session
// (including its random exploration actions) against baseline
// measurements taken at three different times.
type Fig6Result struct {
	Baselines [3]CIValue
	Training  CIValue
	// RatioVsMeanBaseline is training/mean(baselines); the paper's claim
	// is that this is ≈1 (training barely hurts production traffic).
	RatioVsMeanBaseline float64
}

// RunFig6 runs the paper's 70-hour training session (scaled) on the 1:1
// random workload, recording throughput throughout, and measures three
// baselines at different (perturbation-separated) times.
func RunFig6(o Options) (*Fig6Result, error) {
	gen := workload.NewRandRW(1, 1, o.Seed+23)
	env, err := NewEnv(o, gen)
	if err != nil {
		return nil, err
	}
	// Throughput during training, ε-greedy actions included.
	env.Engine.SetTraining(true)
	env.Engine.SetTuning(true)
	n := o.Ticks(70)
	series := make([]float64, 0, n)
	for i := int64(0); i < n; i++ {
		env.Loop.Run(1)
		series = append(series, env.Cluster.AggregateThroughput())
	}
	res := &Fig6Result{Training: summarize(series)}

	var sum float64
	for k := 0; k < 3; k++ {
		benv, err := NewEnv(Options{
			Scale: o.Scale, Clients: o.Clients, Servers: o.Servers,
			TicksPerObservation: o.TicksPerObservation, TrainEvery: o.TrainEvery,
			Seed: o.Seed + int64(31*k), ServiceNoise: o.ServiceNoise,
		}, workload.NewRandRW(1, 1, o.Seed+int64(37*k)))
		if err != nil {
			return nil, err
		}
		base := benv.MeasureBaseline(2)
		res.Baselines[k] = summarize(base)
		sum += res.Baselines[k].Mean
	}
	res.RatioVsMeanBaseline = res.Training.Mean / (sum / 3)
	return res, nil
}

// ---------------------------------------------------------------------------
// Table 2: technical measurements.

// Table2 holds the reproduced technical measurements.
type Table2 struct {
	TrainStepSeconds    float64 // one 32-observation minibatch, paper network (CPU)
	TrainStepSecondsExp float64 // same, at the experiment's observation size
	ReplayRecords       int
	ModelBytes          int
	ReplayDiskBytes     int64
	ReplayMemoryBytes   int64
	PIsPerClient        int
	ObservationSize     int
	AvgMessageBytes     float64
}

// RunTable2 measures every row. The paper-network row uses the full
// Table 1 shape (1760-float observations ≈ 44 PIs × 4 OSCs × 10 ticks);
// the experiment row uses the configuration actually used in this
// reproduction's sessions.
func RunTable2(o Options) (*Table2, error) {
	res := &Table2{PIsPerClient: storesim.NumClientPIs}

	// Train-step duration for the paper-shaped network.
	paperObs := o.PaperObsWidth
	if paperObs <= 0 {
		paperObs = 1760
	}
	var err error
	if res.TrainStepSeconds, err = measureTrainStep(paperObs, 32); err != nil {
		return nil, err
	}

	// Train-step duration at this reproduction's observation size.
	expObs := o.Clients * storesim.NumClientPIs * o.TicksPerObservation
	res.ObservationSize = expObs
	if res.TrainStepSecondsExp, err = measureTrainStep(expObs, 32); err != nil {
		return nil, err
	}

	// Model size at the paper shape, at the engine's deployed precision
	// (float32 since the generic-precision numeric core landed).
	rng := rand.New(rand.NewSource(1))
	model := nn.NewCAPESNetwork[capes.EnginePrecision](rng, paperObs, 5)
	res.ModelBytes = model.Bytes()

	// Replay DB sizes from a populated session (a scaled 12-hour run's
	// worth of records).
	db, err := replay.New(replay.Config{
		FrameWidth:       o.Clients * storesim.NumClientPIs,
		StackTicks:       o.TicksPerObservation,
		MissingTolerance: 0.2,
	})
	if err != nil {
		return nil, err
	}
	n := o.Ticks(12)
	frame := make(replay.Frame, o.Clients*storesim.NumClientPIs)
	for tick := int64(0); tick < n; tick++ {
		for j := range frame {
			frame[j] = rng.Float64()
		}
		if err := db.PutFrame(tick, frame); err != nil {
			return nil, err
		}
		db.PutAction(tick, rng.Intn(5))
	}
	res.ReplayRecords = db.Len()
	res.ReplayMemoryBytes = db.MemoryBytes()
	if res.ReplayDiskBytes, err = db.DiskBytes(); err != nil {
		return nil, err
	}

	// Average steady-state message size per client, with the paper's 44
	// PIs per client and a realistic few-changes-per-tick pattern.
	enc := wire.NewDiffEncoder(0, 44)
	pis := make([]float64, 44)
	for i := range pis {
		pis[i] = rng.Float64()
	}
	first, _ := enc.Encode(0, pis)
	if _, err := wire.MessageBytes(&wire.Envelope{Type: wire.MsgIndicators, Indicators: first}); err != nil {
		return nil, err
	}
	var total int
	const msgs = 200
	for tick := int64(1); tick <= msgs; tick++ {
		for k := 0; k < 8; k++ { // ~8 of 44 PIs move each second
			pis[rng.Intn(44)] = rng.Float64()
		}
		m, err := enc.Encode(tick, pis)
		if err != nil {
			return nil, err
		}
		b, err := wire.MessageBytes(&wire.Envelope{Type: wire.MsgIndicators, Indicators: m})
		if err != nil {
			return nil, err
		}
		total += b
	}
	res.AvgMessageBytes = float64(total) / msgs
	return res, nil
}

// NewTrainStep returns one train step on the path a session runs —
// Engine.Agent().TrainStep: forward, Equation-1 loss, backward,
// global-norm clip, fused Adam sweep and soft target update — bound to a
// fresh engine with Table 1's hyperparameters and the evaluation's five
// actions, and to a random float32 minibatch of batch observations
// obsWidth wide. Table 2's train-step rows time it.
func NewTrainStep(obsWidth, batch int) (func() error, error) {
	space, err := capes.NewActionSpace(capes.LustreTunables()...)
	if err != nil {
		return nil, err
	}
	h := capes.DefaultHyperparameters()
	h.TicksPerObservation = 1
	h.MinibatchSize = batch
	eng, err := capes.NewEngine(capes.Config{
		Hyper:      h,
		Space:      space,
		Objective:  capes.SumIndices(0),
		FrameWidth: obsWidth,
		Seed:       2,
		Training:   true,
	}, func() (replay.Frame, error) { return nil, nil }, nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(2))
	b := &replay.Batch[capes.EnginePrecision]{
		States:     make([]capes.EnginePrecision, batch*obsWidth),
		NextStates: make([]capes.EnginePrecision, batch*obsWidth),
		Actions:    make([]int, batch),
		Rewards:    make([]capes.EnginePrecision, batch),
		N:          batch,
		Width:      obsWidth,
	}
	for i := range b.States {
		b.States[i] = capes.EnginePrecision(rng.NormFloat64())
		b.NextStates[i] = capes.EnginePrecision(rng.NormFloat64())
	}
	for i := range b.Actions {
		b.Actions[i] = rng.Intn(space.NumActions())
		b.Rewards[i] = capes.EnginePrecision(rng.NormFloat64())
	}
	agent := eng.Agent()
	return func() error {
		_, err := agent.TrainStep(b)
		return err
	}, nil
}

// measureTrainStep times NewTrainStep's step: one warm-up, then the mean
// of a handful.
func measureTrainStep(obsWidth, batch int) (float64, error) {
	step, err := NewTrainStep(obsWidth, batch)
	if err != nil {
		return 0, err
	}
	if err := step(); err != nil {
		return 0, err
	}
	const reps = 3
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := step(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / reps, nil
}

// ---------------------------------------------------------------------------
// Baseline-tuner comparison (the §5/§6 "compare CAPES' best results with
// the best results from other automatic tuning methods" future-work item).

// ComparisonRow is one tuner's steady-state throughput on a workload.
type ComparisonRow struct {
	Tuner   string
	Values  []float64
	Tput    float64 // bytes/s
	GainPct float64 // vs static default
	Probes  int
}

// RunComparison pits the static default, hill-climbing, random search and
// CAPES against each other on a workload. Search-based tuners probe the
// live cluster (each probe costs settle+measure ticks, like a real
// tweak-benchmark cycle).
func RunComparison(o Options, mkGen func(seed int64) workload.Generator, trainHours float64) ([]ComparisonRow, error) {
	// Shared prober: fresh cluster per tuner, sequential probes.
	newProber := func(seed int64) (prober, *storesim.Cluster, error) {
		cp := storesim.DefaultParams()
		cp.Clients, cp.Servers, cp.Seed = o.Clients, o.Servers, seed
		cl, err := storesim.New(cp, mkGen(seed))
		if err != nil {
			return nil, nil, err
		}
		var at int64
		probe := func(values []float64) float64 {
			cl.SetAllWindows(values[0])
			cl.SetAllRateLimits(values[1])
			t := cl.RunSteady(at, 120, 60)
			at += 120
			return t
		}
		return probe, cl, nil
	}

	space, err := capes.NewActionSpace(capes.LustreTunables()...)
	if err != nil {
		return nil, err
	}
	var rows []ComparisonRow
	addRow := func(r tunerResult) {
		rows = append(rows, ComparisonRow{Tuner: r.Name, Values: r.Values, Tput: r.Score, Probes: r.Probes})
	}

	probe, _, err := newProber(o.Seed + 41)
	if err != nil {
		return nil, err
	}
	addRow(staticDefault(space, probe))

	probe, _, err = newProber(o.Seed + 43)
	if err != nil {
		return nil, err
	}
	addRow(hillClimb(space, probe, 60))

	probe, _, err = newProber(o.Seed + 47)
	if err != nil {
		return nil, err
	}
	addRow(randomSearch(space, probe, 40, o.Seed))

	// CAPES.
	env, err := NewEnv(o, mkGen(o.Seed+53))
	if err != nil {
		return nil, err
	}
	env.Train(trainHours)
	tuned := env.MeasureTuned(0.5)
	rows = append(rows, ComparisonRow{
		Tuner:  "capes",
		Values: env.Engine.CurrentValues(),
		Tput:   pilot.Mean(tuned),
		Probes: 0,
	})

	base := rows[0].Tput
	for i := range rows {
		rows[i].GainPct = 100 * (rows[i].Tput/base - 1)
	}
	return rows, nil
}
