// Package pilot reimplements the statistical procedure of Appendix B
// (the authors' Pilot benchmark framework): validate that throughput
// samples are independent and identically distributed before applying
// the Student's t-distribution, using autocorrelation checks and
// subsession (batch-means) analysis; trim warm-up and cool-down phases
// with a changepoint heuristic; and report means with 95% confidence
// intervals.
package pilot

import (
	"fmt"
	"math"
)

// Summary is a validated measurement result.
type Summary struct {
	Mean       float64
	CI         float64 // half-width at the configured confidence level
	N          int     // samples used after merging/trimming
	MergeLevel int     // samples merged per subsession to reach i.i.d.
	Autocorr   float64 // lag-1 autocorrelation of the final series
	Trimmed    int     // samples removed as warm-up/cool-down
}

// String renders "mean ± CI (n=…)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d, merge=%d)", s.Mean, s.CI, s.N, s.MergeLevel)
}

// Appendix B's analysis constants.
const (
	autocorrLimit = 0.1  // |lag-1 autocorrelation| above which subsessions merge
	confidence    = 0.95 // confidence level of the interval
	minSamples    = 8    // fewest merged samples before the merge loop gives up
)

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// variance returns the unbiased sample variance.
func variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// Lag1Autocorr returns the lag-1 autocorrelation coefficient in [-1,1].
func Lag1Autocorr(xs []float64) float64 {
	n := len(xs)
	if n < 3 {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
		if i > 0 {
			num += d * (xs[i-1] - m)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// MergeAdjacent averages adjacent groups of k samples (subsession
// analysis): "adjacent samples in a time series are merged by taking the
// mean, and this can reduce the autocorrelation of the samples".
func MergeAdjacent(xs []float64, k int) []float64 {
	if k <= 1 {
		return append([]float64(nil), xs...)
	}
	out := make([]float64, 0, len(xs)/k)
	for i := 0; i+k <= len(xs); i += k {
		var s float64
		for j := i; j < i+k; j++ {
			s += xs[j]
		}
		out = append(out, s/float64(k))
	}
	return out
}

// Analyze runs the full Appendix-B pipeline: warm-up and cool-down
// trimming, subsession merging until |ρ₁| falls below the limit
// (doubling the merge factor each round), then a Student-t confidence
// interval.
func Analyze(xs []float64) (Summary, error) {
	if len(xs) < 4 {
		return Summary{}, fmt.Errorf("pilot: need at least 4 samples, have %d", len(xs))
	}
	work, trimmed := TrimTransients(xs)
	if len(work) < 4 {
		work, trimmed = xs, 0 // trimming ate everything; keep raw
	}
	return mergeAndSummarize(work, trimmed), nil
}

// mergeAndSummarize is Analyze after trimming: it merges adjacent
// samples of the stable region work until they pass the i.i.d. check,
// then computes the interval. trimmed is carried into the Summary.
func mergeAndSummarize(work []float64, trimmed int) Summary {
	merge := 1
	cur := append([]float64(nil), work...)
	for {
		rho := Lag1Autocorr(cur)
		if math.Abs(rho) <= autocorrLimit || len(cur)/2 < minSamples {
			mean := Mean(cur)
			se := math.Sqrt(variance(cur) / float64(len(cur)))
			tcrit := tCritical(confidence, len(cur)-1)
			return Summary{
				Mean:       mean,
				CI:         tcrit * se,
				N:          len(cur),
				MergeLevel: merge,
				Autocorr:   rho,
				Trimmed:    trimmed,
			}
		}
		merge *= 2
		cur = MergeAdjacent(work, merge)
	}
}

// TrimTransients removes the warm-up and cool-down phases: it scans for
// the longest suffix/prefix whose running mean stays within one standard
// deviation of the stable middle-half mean (a lightweight changepoint
// heuristic standing in for Pilot's detector). It returns the stable
// region and how many samples were removed.
func TrimTransients(xs []float64) (stable []float64, removed int) {
	n := len(xs)
	if n < 12 {
		return append([]float64(nil), xs...), 0
	}
	mid := xs[n/4 : 3*n/4]
	m := Mean(mid)
	sd := math.Sqrt(variance(mid))
	if sd == 0 {
		return append([]float64(nil), xs...), 0
	}
	// Expand from the middle outwards while short-window means stay
	// within 2σ of the stable mean.
	win := n / 20
	if win < 3 {
		win = 3
	}
	lo := 0
	for lo+win <= n/4 {
		if math.Abs(Mean(xs[lo:lo+win])-m) <= 2*sd {
			break
		}
		lo += win
	}
	hi := n
	for hi-win >= 3*n/4 {
		if math.Abs(Mean(xs[hi-win:hi])-m) <= 2*sd {
			break
		}
		hi -= win
	}
	return append([]float64(nil), xs[lo:hi]...), lo + (n - hi)
}

// tCritical returns the two-sided Student-t critical value for the given
// confidence level and degrees of freedom, computed by bisection on the
// regularized incomplete beta function (stdlib-only).
func tCritical(confidence float64, df int) float64 {
	if df < 1 {
		df = 1
	}
	p := 1 - (1-confidence)/2 // one-sided quantile, e.g. 0.975
	lo, hi := 0.0, 200.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if tCDF(mid, float64(df)) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// tCDF is the cumulative distribution function of Student's t.
func tCDF(t, df float64) float64 {
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	ib := incompleteBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - ib/2
	}
	return ib / 2
}

// incompleteBeta computes the regularized incomplete beta I_x(a,b) via
// the continued-fraction expansion (Numerical Recipes betacf).
func incompleteBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
