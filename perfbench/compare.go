package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is how the driver measures run-to-run spread.
func quartiles(vals []float64) (q1, q3 float64) {
	data := slices.Sorted(slices.Values(vals))
	n := len(data)
	if n < 2 {
		return data[0], data[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return at(1), at(3)
}

// minPairs is the least number of parent/change pairs a gain may rest
// on; with fewer, a drift of the host between the two sides wins them all.
const minPairs = 10

// side is one side of a comparison: every untraced run of its files,
// grouped by workload, in file order.
type side struct {
	env  environment
	runs map[string][]*result
}

func loadSide(paths string) (*side, error) {
	s := &side{runs: map[string][]*result{}}
	for i, path := range strings.Split(paths, ",") {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(buf, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if i == 0 {
			s.env = f.Env
		} else if diff := envDiff(s.env, f.Env); diff != "" {
			return nil, fmt.Errorf("%s: environment differs from the side's first file: %s", path, diff)
		}
		for _, r := range f.Runs {
			if !r.Trace {
				s.runs[r.Workload] = append(s.runs[r.Workload], r)
			}
		}
	}
	return s, nil
}

// envDiff names what makes two result files incomparable. The commit is
// expected to differ; kernel tier, CPU count, GOMAXPROCS and Go version
// must not.
func envDiff(a, b environment) string {
	var diffs []string
	add := func(what string, x, y any) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", what, x, y))
		}
	}
	add("kernel tier", a.KernelTier, b.KernelTier)
	add("nproc", a.NProc, b.NProc)
	add("GOMAXPROCS", a.GOMAXPROCS, b.GOMAXPROCS)
	add("Go version", a.GoVersion, b.GoVersion)
	return strings.Join(diffs, ", ")
}

// verdict judges one end-to-end metric on one workload: a is the
// parent's runs, b the change's, paired by position.
//
//	gain        at least ten pairs, b wins at least 9/10 of them (ties count
//	            for neither) and the medians differ by more than a's
//	            inter-quartile distance
//	unresolved  a's own spread is wider than the bound, so neither "ok" nor
//	            "regression" can be told — unless every b run beats every a run
//	regression  b's median is worse than a's by more than the bound
//	ok          otherwise
func verdict(d decl, a, b []float64) (medA, medB float64, word string) {
	medA, medB = median(a), median(b)
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	worse := (medB - medA) / medA
	if d.Better == "higher" {
		worse = -worse
	}
	q1, q3 := quartiles(a)
	iqr := q3 - q1

	pairs := len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(b[i], a[i]):
			wins++
		case better(a[i], b[i]):
			losses++
		}
	}
	gap := medB - medA
	if gap < 0 {
		gap = -gap
	}
	if pairs >= minPairs && float64(wins) >= 0.9*float64(wins+losses) && wins > 0 && better(medB, medA) && gap > iqr {
		return medA, medB, "gain"
	}
	if iqr/medA > d.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				allBetter = allBetter && better(x, y)
			}
		}
		if !allBetter {
			return medA, medB, "unresolved"
		}
	}
	if worse > d.Bound {
		return medA, medB, "regression"
	}
	return medA, medB, "ok"
}

// compareMain is `perfbench compare A.json[,A2.json...] B.json[,B2.json...]`:
// A is the parent, B the change; several files per side are separated by
// commas and paired in order.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.json[,A2.json...] B.json[,B2.json...]")
		return 2
	}
	a, err := loadSide(args[0])
	if err == nil {
		var b *side
		if b, err = loadSide(args[1]); err == nil {
			if diff := envDiff(a.env, b.env); diff != "" {
				err = fmt.Errorf("refusing to compare: environments differ: %s", diff)
			} else {
				return printComparison(a, b)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

func printComparison(a, b *side) int {
	fmt.Printf("A = parent (commit %s), B = change (commit %s); ratio = B/A, base A; kernel tier %s, nproc %d\n",
		a.env.Commit, b.env.Commit, a.env.KernelTier, a.env.NProc)
	fmt.Printf("%-18s %-14s %3s %12s %12s %8s %7s  %s\n", "workload", "metric", "n", "median A", "median B", "B/A", "bound", "verdict")
	regressions := 0
	for _, w := range workloads {
		ra, rb := a.runs[w.Name], b.runs[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			values := func(runs []*result) []float64 {
				var out []float64
				for _, r := range runs {
					out = append(out, r.Metrics[d.Name].Value)
				}
				return out
			}
			va, vb := values(ra), values(rb)
			medA, medB, word := verdict(d, va, vb)
			if word == "regression" {
				regressions++
			}
			n := len(va)
			if len(vb) < n {
				n = len(vb)
			}
			fmt.Printf("%-18s %-14s %3d %12.4f %12.4f %8.4f %6.0f%%  %s\n",
				w.Name, d.Name, n, medA, medB, medB/medA, 100*d.Bound, word)
		}
		for side, runs := range map[string][]*result{"A": ra, "B": rb} {
			for _, r := range runs {
				if r.Failed > 0 {
					fmt.Printf("%-18s side %s seed %d: %d of %d operations failed\n", w.Name, side, r.Seed, r.Failed, r.Attempted)
					regressions++
				}
			}
		}
	}
	if regressions > 0 {
		return 1
	}
	return 0
}
