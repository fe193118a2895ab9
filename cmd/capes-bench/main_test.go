package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"capes/internal/tensor"
)

func TestRunTable1(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "table1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"--- table1 ---", "Table 1: hyperparameters", "minibatch size", "(table1 completed in"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "--- fig2 ---") {
		t.Errorf("table1 alone ran fig2:\n%s", got)
	}
}

// TestRunRejectsUnknownExperiment: a misspelt name anywhere in the list
// is an error named in the message, and nothing runs first.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-experiment", "fig2,fgi3"}, &out)
	if err == nil || !strings.Contains(err.Error(), `"fgi3"`) {
		t.Fatalf("err = %v, want one naming \"fgi3\"", err)
	}
	if out.Len() != 0 {
		t.Fatalf("ran before rejecting the list:\n%s", out.String())
	}
}

// TestRunWritesDeterministicJSON drives the convergence harness twice at
// test scale: the trajectory files must appear under -json-dir and be
// byte-identical across runs with the same seed — the property the CI
// gate depends on.
func TestRunWritesDeterministicJSON(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-experiment", "convergence", "-scale", "0.002", "-json-dir"}
	for _, sub := range []string{"a", "b"} {
		if err := run(append(args, filepath.Join(dir, sub)), io.Discard); err != nil {
			// At 0.002 scale a threshold may legitimately not fall — the
			// harness then fails but must still write the JSON.
			if !strings.Contains(err.Error(), "did not reach") {
				t.Fatal(err)
			}
		}
	}
	for _, sc := range []string{"randrw-1-9", "randrw-1-4", "fileserver"} {
		name := "BENCH_convergence_" + sc + ".json"
		a, err := os.ReadFile(filepath.Join(dir, "a", name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "b", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: same seed produced different BENCH JSON", sc)
		}
		for _, want := range []string{`"scenario": "` + sc + `"`, `"curve"`, `"time_to_threshold_ticks"`} {
			if !strings.Contains(string(a), want) {
				t.Fatalf("trajectory JSON missing %s:\n%s", want, a)
			}
		}
		if !bytes.HasSuffix(a, []byte("}\n")) {
			t.Fatalf("%s does not end in a newline", name)
		}
	}
}

// TestConvergenceJSONSameOnAVX512AsAVX2 runs the same test-scale
// convergence harness on the avx2 and the avx512 kernel tier: the
// avx512 bodies keep avx2's operation order, so every trajectory file
// must come out byte-identical. Hosts without AVX-512F skip it.
func TestConvergenceJSONSameOnAVX512AsAVX2(t *testing.T) {
	orig := tensor.KernelTier()
	defer tensor.SetKernelTier(orig)
	if applied, _ := tensor.SetKernelTier("avx512"); applied != "avx512" {
		t.Skip("host has no AVX-512F: no avx512 tier to hold to avx2")
	}
	dir := t.TempDir()
	for _, tier := range []string{"avx2", "avx512"} {
		if applied, err := tensor.SetKernelTier(tier); err != nil || applied != tier {
			t.Fatalf("SetKernelTier(%q) = %q, %v", tier, applied, err)
		}
		err := run([]string{"-experiment", "convergence", "-scale", "0.002", "-json-dir", filepath.Join(dir, tier)}, io.Discard)
		if err != nil && !strings.Contains(err.Error(), "did not reach") {
			t.Fatal(err)
		}
	}
	for _, sc := range []string{"randrw-1-9", "randrw-1-4", "fileserver"} {
		name := "BENCH_convergence_" + sc + ".json"
		a, err := os.ReadFile(filepath.Join(dir, "avx2", name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "avx512", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: avx512 trajectory differs from avx2's", name)
		}
	}
}

// TestRunChartOutput: the convergence experiment always prints the
// smoothed-reward chart, once per scenario.
func TestRunChartOutput(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-experiment", "convergence", "-scale", "0.002",
		"-json-dir", t.TempDir()}, &out)
	if err != nil && !strings.Contains(err.Error(), "did not reach") {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "smoothed reward"); n != 3 {
		t.Fatalf("printed %d reward curves, want 3:\n%s", n, out.String())
	}
}
