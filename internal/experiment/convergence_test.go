package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// convergenceOptions shrinks a scenario to CI-test size: ~86 ticks per
// 12-hour scenario, a couple of seconds total.
func convergenceOptions() Options {
	o := tinyOptions()
	o.Scale = 0.002
	return o
}

// convergenceScenario looks a committed preset up by name.
func convergenceScenario(t *testing.T, name string) ConvergenceScenario {
	t.Helper()
	for _, sc := range ConvergenceScenarios() {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("committed scenario %q missing", name)
	return ConvergenceScenario{}
}

func TestRunDeterministicJSON(t *testing.T) {
	sc := convergenceScenario(t, "randrw-1-9")
	o := convergenceOptions()
	a, err := RunConvergence(sc, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunConvergence(sc, o)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.MarshalIndent(a, "", "  ")
	jb, _ := json.MarshalIndent(b, "", "  ")
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same seed produced different trajectories:\n%s\n----\n%s", ja, jb)
	}
}

func TestRunTrajectoryShape(t *testing.T) {
	res, err := RunConvergence(convergenceScenario(t, "randrw-1-4"), convergenceOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ticks <= 0 || len(res.Curve) == 0 {
		t.Fatalf("empty trajectory: %+v", res)
	}
	if res.Curve[len(res.Curve)-1].Tick != res.Ticks {
		t.Fatalf("curve does not end at the final tick: %d vs %d",
			res.Curve[len(res.Curve)-1].Tick, res.Ticks)
	}
	for i := 1; i < len(res.Curve); i++ {
		if res.Curve[i].Tick <= res.Curve[i-1].Tick {
			t.Fatal("curve ticks not monotone")
		}
	}
	if res.RewardAUC <= 0 || res.FinalReward <= 0 {
		t.Fatalf("no reward recorded: %+v", res)
	}
	if res.TrainSteps == 0 {
		t.Fatal("the agent never trained")
	}
	// Converged and TimeToThreshold must agree regardless of outcome.
	if res.Converged != (res.TimeToThreshold >= 0) {
		t.Fatalf("converged=%v but time_to_threshold=%d", res.Converged, res.TimeToThreshold)
	}
}

func TestScenariosCommitted(t *testing.T) {
	scs := ConvergenceScenarios()
	if len(scs) < 2 || len(scs) > 3 {
		t.Fatalf("want 2–3 committed scenarios, have %d", len(scs))
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		if sc.Name == "" || sc.Hours <= 0 || sc.Threshold <= 0 || sc.Workload == nil {
			t.Fatalf("malformed scenario %+v", sc)
		}
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
		if gen := sc.Workload(1); gen == nil {
			t.Fatalf("scenario %q builds no workload", sc.Name)
		}
	}
}

func TestRenderChart(t *testing.T) {
	res := &ConvergenceResult{
		Scenario:        "demo",
		Workload:        "randrw-1:9",
		Seed:            1,
		Ticks:           100,
		Threshold:       5,
		Converged:       true,
		TimeToThreshold: 40,
		FinalReward:     6.5,
		RewardAUC:       5.5,
		Curve: []CurvePoint{
			{Tick: 25, Reward: 3}, {Tick: 50, Reward: 5},
			{Tick: 75, Reward: 6}, {Tick: 100, Reward: 6.5},
		},
	}
	var buf bytes.Buffer
	WriteConvergence(&buf, res)
	out := buf.String()
	for _, want := range []string{"demo", "converged at tick 40", "smoothed reward"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	res.Converged = false
	res.TimeToThreshold = -1
	buf.Reset()
	WriteConvergence(&buf, res)
	if !strings.Contains(buf.String(), "DID NOT CONVERGE") {
		t.Fatalf("non-converged render:\n%s", buf.String())
	}
}
