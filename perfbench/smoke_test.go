package main

import (
	"context"
	"encoding/json"
	"maps"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the cluster workload re-executes it as a worker.
func TestMain(m *testing.M) {
	if role := os.Getenv(childEnv); role != "" {
		os.Exit(clusterChild(context.Background(), role))
	}
	os.Exit(m.Run())
}

// declared is the part of BENCHMARK.json the smoke test checks.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestSmoke runs every workload, untraced and traced, with 0.1 s
// windows and shrunken set-up, and holds what they emit against
// BENCHMARK.json: same workloads, same metric names and units, names
// well-formed and within the contract's limits, no failed operation.
func TestSmoke(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file declared
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatal(err)
	}
	if n := len(file.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads declared, want 2..8", n)
	}
	if n := len(file.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics declared, want 1..16", n)
	}
	if n := len(file.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics declared, want 1..128", n)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := map[string]string{}
	var wantWorkloads, wantE2E, wantLayer []string
	for _, w := range file.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	for _, d := range file.EndToEnd {
		wantE2E = append(wantE2E, d.Name)
		units[d.Name] = d.Unit
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range file.PerLayer {
		wantLayer = append(wantLayer, d.Name)
		units[d.Name] = d.Unit
	}
	for _, n := range append(append(append([]string{}, wantWorkloads...), wantE2E...), wantLayer...) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not well-formed", n)
		}
	}

	// compare judges against the bounds in metrics.go; they must be the
	// committed ones.
	for i, d := range file.EndToEnd {
		if i < len(endToEnd) && (endToEnd[i] != decl{d.Name, d.Unit, d.Better, d.Bound}) {
			t.Errorf("end-to-end metric %d: metrics.go has %+v, BENCHMARK.json %+v", i, endToEnd[i], d)
		}
	}

	var gotWorkloads []string
	for _, w := range workloads {
		gotWorkloads = append(gotWorkloads, w.Name)
	}
	if !slices.Equal(slices.Sorted(slices.Values(gotWorkloads)), slices.Sorted(slices.Values(wantWorkloads))) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", gotWorkloads, wantWorkloads)
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: 1, seconds: 0.1, trace: traced, short: true, ctx: context.Background()}
			start := time.Now()
			res, err := runOne(w, o)
			t.Logf("%s trace=%v took %v", w.Name, traced, time.Since(start))
			if err != nil {
				t.Fatalf("trace=%v: %v", traced, err)
			}
			want := wantE2E
			if traced {
				want = wantLayer
			}
			if got := slices.Sorted(maps.Keys(res.Metrics)); !slices.Equal(got, slices.Sorted(slices.Values(want))) {
				t.Errorf("%s trace=%v: emitted metrics %v, BENCHMARK.json declares %v", w.Name, traced, got, want)
			}
			for n, v := range res.Metrics {
				if v.Unit != units[n] {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, n, v.Unit, units[n])
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, n, v.Value)
				}
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", w.Name, traced, res.Attempted, res.Failed, res.Notes)
			}
		}
	}
}
