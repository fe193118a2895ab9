package experiment

import (
	"bytes"
	"strings"
	"testing"

	"capes/internal/capes"
	"capes/internal/workload"
)

// tinyOptions is small enough for structural tests (no learning-quality
// assertions).
func tinyOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.004 // 12 h → ~172 ticks
	o.Clients = 2
	o.Servers = 2
	o.TicksPerObservation = 2
	return o
}

func TestOptionsValidation(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.Scale = 0 },
		func(o *Options) { o.Clients = 0 },
		func(o *Options) { o.TicksPerObservation = 0 },
		func(o *Options) { o.TrainEvery = 0 },
	}
	for i, mod := range bad {
		o := DefaultOptions()
		mod(&o)
		if _, err := NewEnv(o, workload.NewRandRW(1, 1, 1)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestOptionsTicksAndLearningRate(t *testing.T) {
	o := DefaultOptions()
	if got := o.Ticks(12); got != int64(12*3600*0.05) {
		t.Fatalf("Ticks(12) = %d", got)
	}
	o.Scale = 1e-9
	if o.Ticks(1) != 1 {
		t.Fatal("Ticks must be at least 1")
	}
	// LR scaling: capped at 1e-3.
	if DefaultOptions().learningRate() != 1e-3 {
		t.Fatalf("scaled LR = %v", DefaultOptions().learningRate())
	}
	if PaperOptions().learningRate() != 1e-4 {
		t.Fatalf("paper LR = %v", PaperOptions().learningRate())
	}
	o2 := DefaultOptions()
	o2.LearningRate = 5e-4
	if o2.learningRate() != 5e-4 {
		t.Fatal("explicit LR must win")
	}
}

func TestPaperOptionsShape(t *testing.T) {
	o := PaperOptions()
	if o.Scale != 1.0 || o.TicksPerObservation != 10 {
		t.Fatalf("paper options = %+v", o)
	}
	if o.Ticks(12) != 43200 {
		t.Fatalf("12 h at paper scale = %d ticks", o.Ticks(12))
	}
}

func TestEnvMeasurePhases(t *testing.T) {
	env, err := NewEnv(tinyOptions(), workload.NewRandRW(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	base := env.MeasureBaseline(0.5)
	if len(base) == 0 {
		t.Fatal("no baseline samples")
	}
	// Baseline resets the cluster to defaults.
	if env.Cluster.Window(0) != 8 {
		t.Fatalf("baseline window = %v", env.Cluster.Window(0))
	}
	env.Train(0.2)
	tuned := env.MeasureTuned(0.5)
	if len(tuned) != len(base) {
		t.Fatalf("phase lengths differ: %d vs %d", len(tuned), len(base))
	}
	for _, v := range base {
		if v < 0 {
			t.Fatal("negative throughput sample")
		}
	}
}

func TestRunFig2Structure(t *testing.T) {
	rows, err := RunFig2(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("fig2 rows = %d", len(rows))
	}
	wantRatios := []string{"9:1", "4:1", "1:1", "1:4", "1:9"}
	for i, r := range rows {
		if r.Ratio != wantRatios[i] {
			t.Fatalf("row %d ratio %q", i, r.Ratio)
		}
		if r.Baseline.Mean <= 0 || r.After12h.Mean <= 0 || r.After24h.Mean <= 0 {
			t.Fatalf("row %s has non-positive means: %+v", r.Ratio, r)
		}
	}
	var buf bytes.Buffer
	WriteFig2(&buf, rows)
	if !strings.Contains(buf.String(), "1:9") {
		t.Fatal("report missing ratio rows")
	}
}

func TestRunFig3Structure(t *testing.T) {
	rows, err := RunFig3(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Workload != "fileserver" || rows[1].Workload != "seqwrite" {
		t.Fatalf("fig3 rows = %+v", rows)
	}
	var buf bytes.Buffer
	WriteFig3(&buf, rows)
	if !strings.Contains(buf.String(), "fileserver") {
		t.Fatal("report missing workloads")
	}
}

func TestRunFig4Structure(t *testing.T) {
	sessions, err := RunFig4(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 3 {
		t.Fatalf("fig4 sessions = %d", len(sessions))
	}
	for i, s := range sessions {
		if s.Session != i+1 || s.Baseline.Mean <= 0 || s.Tuned.Mean <= 0 {
			t.Fatalf("session %d malformed: %+v", i, s)
		}
	}
	var buf bytes.Buffer
	WriteFig4(&buf, sessions)
	if !strings.Contains(buf.String(), "session") {
		t.Fatal("report malformed")
	}
}

func TestRunFig5Structure(t *testing.T) {
	o := tinyOptions()
	o.Scale = 0.01 // needs enough train steps for a trace
	res, err := RunFig5(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) < 8 || res.TrainSteps == 0 {
		t.Fatalf("fig5 = %+v", res)
	}
	var buf bytes.Buffer
	WriteFig5(&buf, res)
	if !strings.Contains(buf.String(), "prediction error") {
		t.Fatal("report malformed")
	}
}

func TestRunFig6Structure(t *testing.T) {
	res, err := RunFig6(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Training.Mean <= 0 {
		t.Fatal("no training throughput")
	}
	for i, b := range res.Baselines {
		if b.Mean <= 0 {
			t.Fatalf("baseline %d empty", i)
		}
	}
	if res.RatioVsMeanBaseline <= 0 {
		t.Fatal("ratio not computed")
	}
	var buf bytes.Buffer
	WriteFig6(&buf, res)
	if !strings.Contains(buf.String(), "training/baseline") {
		t.Fatal("report malformed")
	}
}

func TestRunTable2(t *testing.T) {
	o := tinyOptions()
	if testing.Short() {
		// Reduced-scale short mode: measure the timing rows on a small
		// network instead of the 1760-wide paper shape.
		o.PaperObsWidth = 128
	}
	res, err := RunTable2(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainStepSeconds <= 0 || res.TrainStepSecondsExp <= 0 {
		t.Fatal("train step durations not measured")
	}
	if res.ReplayRecords <= 0 || res.ModelBytes <= 0 {
		t.Fatal("sizes not measured")
	}
	// The paper-shape model is ~1760×1760×2 + heads ≈ 50 MB at float64.
	if !testing.Short() && res.ModelBytes < 10e6 {
		t.Fatalf("paper-shape model only %d bytes", res.ModelBytes)
	}
	// At most 8 of 44 PIs move per message: ≤ 9 B each on a ≤ 12 B header
	// (the paper's own protocol averages 186 B per client).
	if res.AvgMessageBytes <= 12 || res.AvgMessageBytes > 12+9*8 {
		t.Fatalf("avg message bytes = %v", res.AvgMessageBytes)
	}
	if res.ObservationSize != 2*10*2 {
		t.Fatalf("observation size = %d", res.ObservationSize)
	}
	var buf bytes.Buffer
	WriteTable2(&buf, res)
	if !strings.Contains(buf.String(), "Replay DB") {
		t.Fatal("report malformed")
	}
}

func TestWriteTable1(t *testing.T) {
	var buf bytes.Buffer
	WriteTable1(&buf, capes.DefaultHyperparameters())
	out := buf.String()
	for _, want := range []string{"minibatch size", "discount rate", "0.0001"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunComparisonStructure(t *testing.T) {
	o := tinyOptions()
	rows, err := RunComparison(o, func(seed int64) workload.Generator {
		return workload.NewRandRW(1, 9, seed)
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("comparison rows = %d", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Tuner] = true
		if r.Tput <= 0 {
			t.Fatalf("tuner %s has no throughput", r.Tuner)
		}
	}
	for _, want := range []string{"static-default", "hill-climb", "random-search", "capes"} {
		if !names[want] {
			t.Fatalf("missing tuner %s", want)
		}
	}
	var buf bytes.Buffer
	WriteComparison(&buf, rows)
	if !strings.Contains(buf.String(), "capes") {
		t.Fatal("report malformed")
	}
}

// TestEndToEndLearningWriteHeavy is the repository's core integration
// test: a scaled 12-hour CAPES training session on the 1:9 write-heavy
// workload must deliver a substantial throughput gain over the Lustre
// defaults, reproducing the direction (and roughly the magnitude) of the
// paper's headline result.
func TestEndToEndLearningWriteHeavy(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	o := DefaultOptions()
	o.Scale = 0.05
	env, err := NewEnv(o, workload.NewRandRW(1, 9, 3))
	if err != nil {
		t.Fatal(err)
	}
	env.Train(12)
	tuned := env.MeasureTuned(1)
	base := env.MeasureBaseline(1)
	var tm, bm float64
	for _, v := range tuned {
		tm += v
	}
	for _, v := range base {
		bm += v
	}
	tm /= float64(len(tuned))
	bm /= float64(len(base))
	gain := tm/bm - 1
	if gain < 0.15 {
		t.Fatalf("end-to-end gain %+.1f%%, want ≥ +15%% (window ended at %v)",
			gain*100, env.Engine.CurrentValues()[0])
	}
	// The window must have moved up from the default of 8.
	if w := env.Engine.CurrentValues()[0]; w <= 12 {
		t.Fatalf("window stayed at %v", w)
	}
	if st := env.Engine.Stats(); st.TrainErrors != 0 {
		t.Fatalf("training errors: %+v", st)
	}
}

func TestEnvWithServerPIs(t *testing.T) {
	o := tinyOptions()
	o.IncludeServerPIs = true
	env, err := NewEnv(o, workload.NewRandRW(1, 9, 1))
	if err != nil {
		t.Fatal(err)
	}
	env.Train(0.5)
	wantWidth := env.Cluster.FullFrameWidth() * o.TicksPerObservation
	if got := env.Engine.DB().ObservationWidth(); got != wantWidth {
		t.Fatalf("observation width %d, want %d (server PIs missing)", got, wantWidth)
	}
	if env.Engine.Stats().MissedSamples != 0 {
		t.Fatal("server-PI frames rejected by the replay DB")
	}
}

func TestRunHypersearchStructure(t *testing.T) {
	o := tinyOptions()
	axes := []HyperAxis{{Name: "learning_rate", Values: []float64{1e-3, 2e-3}}}
	res, err := RunHypersearch(o, axes, []int64{1}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("results = %d", len(res.Results))
	}
	if res.Results[0].Score < res.Results[1].Score {
		t.Fatal("results not ranked")
	}
	if res.Best.AdamLearningRate != res.Results[0].Point["learning_rate"] {
		t.Fatal("Best does not reflect the winning point")
	}
	var buf bytes.Buffer
	WriteHypersearch(&buf, res)
	if !strings.Contains(buf.String(), "grid search") {
		t.Fatal("report malformed")
	}
}

func TestRunSSDControlStructure(t *testing.T) {
	res, err := RunSSDControl(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.Mean <= 0 || res.Tuned.Mean <= 0 {
		t.Fatalf("ssd control = %+v", res)
	}
	var buf bytes.Buffer
	WriteSSDControl(&buf, res)
	if !strings.Contains(buf.String(), "SSD") {
		t.Fatal("report malformed")
	}
}

func TestEnvWithPerOSCPIs(t *testing.T) {
	o := tinyOptions()
	o.PerOSCPIs = true
	env, err := NewEnv(o, workload.NewRandRW(1, 9, 1))
	if err != nil {
		t.Fatal(err)
	}
	env.Train(0.5)
	wantWidth := env.Cluster.PerOSCFrameWidth() * o.TicksPerObservation
	if got := env.Engine.DB().ObservationWidth(); got != wantWidth {
		t.Fatalf("observation width %d, want %d", got, wantWidth)
	}
	if env.Engine.Stats().MissedSamples != 0 {
		t.Fatal("per-OSC frames rejected")
	}
}
