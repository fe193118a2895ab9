package pilot

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanAndVariance(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean")
	}
	if v := variance([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(v-4.571428571) > 1e-6 {
		t.Fatalf("variance = %v", v)
	}
}

func TestLag1AutocorrIIDNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	if rho := Lag1Autocorr(xs); math.Abs(rho) > 0.05 {
		t.Fatalf("i.i.d. autocorr = %v", rho)
	}
}

func TestLag1AutocorrAR1High(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 5000)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.9*xs[i-1] + rng.NormFloat64()
	}
	if rho := Lag1Autocorr(xs); rho < 0.8 {
		t.Fatalf("AR(1) autocorr = %v, want ≈0.9", rho)
	}
}

func TestLag1AutocorrDegenerate(t *testing.T) {
	if Lag1Autocorr([]float64{1, 2}) != 0 {
		t.Fatal("short series must return 0")
	}
	if Lag1Autocorr([]float64{5, 5, 5, 5}) != 0 {
		t.Fatal("constant series must return 0")
	}
}

func TestMergeAdjacent(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	got := MergeAdjacent(xs, 2)
	want := []float64{1.5, 3.5, 5.5} // trailing 7 dropped
	if len(got) != len(want) {
		t.Fatalf("merged = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged = %v", got)
		}
	}
	// k=1 returns a copy.
	cp := MergeAdjacent(xs, 1)
	cp[0] = 99
	if xs[0] == 99 {
		t.Fatal("MergeAdjacent(.,1) must copy")
	}
}

// Merging reduces AR(1) autocorrelation — the subsession-analysis premise.
func TestMergeReducesAutocorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 8000)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.8*xs[i-1] + rng.NormFloat64()
	}
	raw := Lag1Autocorr(xs)
	merged := Lag1Autocorr(MergeAdjacent(xs, 16))
	if merged >= raw {
		t.Fatalf("merging did not reduce autocorr: %v → %v", raw, merged)
	}
}

func TestTCriticalKnownValues(t *testing.T) {
	// Standard t-table values (two-sided 95%).
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {5, 2.571}, {10, 2.228}, {30, 2.042}, {100, 1.984},
	}
	for _, c := range cases {
		got := tCritical(0.95, c.df)
		if math.Abs(got-c.want) > 0.01 {
			t.Fatalf("t(0.95, df=%d) = %v, want %v", c.df, got, c.want)
		}
	}
	// 99% level, df=10 → 3.169.
	if got := tCritical(0.99, 10); math.Abs(got-3.169) > 0.01 {
		t.Fatalf("t(0.99, df=10) = %v", got)
	}
	// Large df approaches the normal quantile 1.96.
	if got := tCritical(0.95, 10000); math.Abs(got-1.96) > 0.01 {
		t.Fatalf("t(0.95, df=1e4) = %v", got)
	}
}

func TestTCDFSymmetry(t *testing.T) {
	f := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 5)
		p, q := tCDF(x, 7), tCDF(-x, 7)
		return math.Abs(p+q-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if tCDF(0, 5) != 0.5 {
		t.Fatal("tCDF(0) must be 0.5")
	}
}

func TestAnalyzeIIDGaussianCoverage(t *testing.T) {
	// The 95% CI of the untrimmed merge stage must contain the true mean ~95% of the
	// time; check it does so at least 85/100 with a margin for luck.
	rng := rand.New(rand.NewSource(4))
	const trueMean = 10.0
	hits := 0
	for trial := 0; trial < 100; trial++ {
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = trueMean + rng.NormFloat64()
		}
		s := mergeAndSummarize(xs, 0)
		if math.Abs(s.Mean-trueMean) <= s.CI {
			hits++
		}
	}
	if hits < 85 {
		t.Fatalf("CI covered true mean only %d/100 times", hits)
	}
}

// Autocorrelated data must be merged before the CI is computed; a naive
// CI would be falsely tight (the Appendix-B warning).
func TestAnalyzeMergesAutocorrelatedData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 4096)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.95*xs[i-1] + rng.NormFloat64()
	}
	s := mergeAndSummarize(xs, 0)
	if s.MergeLevel < 2 {
		t.Fatalf("AR(1) data must trigger merging, level = %d", s.MergeLevel)
	}
	// And the resulting CI must be wider than the naive i.i.d. CI.
	naiveSE := math.Sqrt(variance(xs) / float64(len(xs)))
	naiveCI := 1.96 * naiveSE
	if s.CI <= naiveCI {
		t.Fatalf("merged CI %v not wider than naive %v", s.CI, naiveCI)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze([]float64{1, 2, 3}); err == nil {
		t.Fatal("too-few samples must error")
	}
}

func TestAnalyzeMinSamplesStopsMerging(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 64)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.99*xs[i-1] + rng.NormFloat64()
	}
	s := mergeAndSummarize(xs, 0)
	if s.N < minSamples {
		t.Fatalf("merged below MinSamples: n=%d", s.N)
	}
}

func TestTrimTransients(t *testing.T) {
	// 40 warm-up samples ramping up, 400 stable, 40 cool-down.
	xs := make([]float64, 0, 480)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		xs = append(xs, float64(i)) // ramp 0..39
	}
	for i := 0; i < 400; i++ {
		xs = append(xs, 100+rng.NormFloat64())
	}
	for i := 0; i < 40; i++ {
		xs = append(xs, float64(40-i)) // ramp down
	}
	stable, removed := TrimTransients(xs)
	if removed < 40 {
		t.Fatalf("only %d transient samples removed", removed)
	}
	m := Mean(stable)
	if math.Abs(m-100) > 5 {
		t.Fatalf("stable mean %v, want ≈100", m)
	}
}

func TestTrimTransientsShortAndConstant(t *testing.T) {
	xs := []float64{1, 2, 3}
	stable, removed := TrimTransients(xs)
	if removed != 0 || len(stable) != 3 {
		t.Fatal("short series must pass through")
	}
	c := []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	stable, removed = TrimTransients(c)
	if removed != 0 || len(stable) != len(c) {
		t.Fatal("constant series must pass through")
	}
}

func TestAnalyzeWithTrim(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 0, 300)
	for i := 0; i < 30; i++ {
		xs = append(xs, float64(i)*2) // warm-up
	}
	for i := 0; i < 270; i++ {
		xs = append(xs, 60+rng.NormFloat64())
	}
	s, err := Analyze(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-60) > 3 {
		t.Fatalf("trimmed mean %v, want ≈60", s.Mean)
	}
	if s.Trimmed == 0 {
		t.Fatal("no samples trimmed")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{Mean: 1.5, CI: 0.1, N: 10, MergeLevel: 2}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}
