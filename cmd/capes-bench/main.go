// capes-bench regenerates every table and figure of the paper's
// evaluation section against the simulated cluster. Each experiment
// prints rows with the same schema the paper reports.
//
// Usage:
//
//	capes-bench -experiment all -scale 0.05
//	capes-bench -experiment fig2 -scale 1.0        # full 12/24 h sessions
//	capes-bench -experiment table2
//	capes-bench -experiment convergence -json-dir out
//
// Experiments: table1, fig2, fig3, fig4, fig5, fig6, table2, comparison,
// ssd, all, and by name only hypersearch and convergence.
//
// convergence is the learning-quality harness: it trains each committed
// scenario (experiment.ConvergenceScenarios), prints its reward curve,
// and writes one BENCH_convergence_<scenario>.json trajectory per
// scenario into -json-dir. The same seed and scale always produce
// byte-identical JSON, so .github/convergence-gate.sh can diff a fresh
// run against the committed baseline with a plain tolerance check. The
// command fails when a scenario does not reach its reward threshold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"capes/internal/capes"
	"capes/internal/experiment"
	"capes/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capes-bench:", err)
		os.Exit(1)
	}
}

// step is one experiment: its -experiment name and its runner.
type step struct {
	name string
	run  func() error
}

// run parses args, checks every requested experiment name, and then runs
// the experiments in order, writing to stdout (and appending to -out).
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("capes-bench", flag.ContinueOnError)
	var (
		exp     = fs.String("experiment", "all", "which experiments to run, comma-separated (table1|fig2|fig3|fig4|fig5|fig6|table2|comparison|ssd|hypersearch|convergence|all)")
		scale   = fs.Float64("scale", 0.05, "session-duration scale (1.0 = the paper's 12/24/70 h schedule)")
		seed    = fs.Int64("seed", 1, "random seed")
		clients = fs.Int("clients", 5, "simulated client nodes")
		servers = fs.Int("servers", 4, "simulated server nodes")
		obs     = fs.Int("obs-ticks", 5, "sampling ticks per observation (paper: 10)")
		outPath = fs.String("out", "", "also append output to this file")
		jsonDir = fs.String("json-dir", ".", "directory for convergence's BENCH_convergence_<scenario>.json files")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := experiment.DefaultOptions()
	o.Scale = *scale
	o.Seed = *seed
	o.Clients = *clients
	o.Servers = *servers
	o.TicksPerObservation = *obs

	// out gains the -out file once every name checks out; the steps
	// write to it when they run.
	out := stdout

	// The experiments in run order. "all" runs every one but hypersearch,
	// which is gridpoints × seeds full sessions, and convergence, which
	// writes files; those two run only when asked for by name.
	steps := []step{
		{"table1", func() error {
			experiment.WriteTable1(out, capes.DefaultHyperparameters())
			return nil
		}},
		{"fig2", func() error {
			rows, err := experiment.RunFig2(o)
			if err != nil {
				return err
			}
			experiment.WriteFig2(out, rows)
			return nil
		}},
		{"fig3", func() error {
			rows, err := experiment.RunFig3(o)
			if err != nil {
				return err
			}
			experiment.WriteFig3(out, rows)
			return nil
		}},
		{"fig4", func() error {
			sessions, err := experiment.RunFig4(o)
			if err != nil {
				return err
			}
			experiment.WriteFig4(out, sessions)
			return nil
		}},
		{"fig5", func() error {
			res, err := experiment.RunFig5(o)
			if err != nil {
				return err
			}
			experiment.WriteFig5(out, res)
			return nil
		}},
		{"fig6", func() error {
			res, err := experiment.RunFig6(o)
			if err != nil {
				return err
			}
			experiment.WriteFig6(out, res)
			return nil
		}},
		{"table2", func() error {
			res, err := experiment.RunTable2(o)
			if err != nil {
				return err
			}
			experiment.WriteTable2(out, res)
			return nil
		}},
		{"comparison", func() error {
			rows, err := experiment.RunComparison(o, func(seed int64) workload.Generator {
				return workload.NewRandRW(1, 9, seed)
			}, 12)
			if err != nil {
				return err
			}
			experiment.WriteComparison(out, rows)
			return nil
		}},
		{"ssd", func() error {
			res, err := experiment.RunSSDControl(o)
			if err != nil {
				return err
			}
			experiment.WriteSSDControl(out, res)
			return nil
		}},
		{"hypersearch", func() error {
			res, err := experiment.RunHypersearch(o, nil, []int64{o.Seed}, 6)
			if err != nil {
				return err
			}
			experiment.WriteHypersearch(out, res)
			return nil
		}},
		{"convergence", func() error {
			return runConvergence(out, o, *jsonDir)
		}},
	}
	byName := []string{"hypersearch", "convergence"}
	want := strings.Split(*exp, ",")
	for _, w := range want {
		if w != "all" && !slices.ContainsFunc(steps, func(st step) bool { return st.name == w }) {
			return fmt.Errorf("unknown experiment %q", w)
		}
	}

	if *outPath != "" {
		f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		out = io.MultiWriter(stdout, f)
	}

	fmt.Fprintf(out, "capes-bench: scale=%.3g clients=%d servers=%d obs-ticks=%d seed=%d\n",
		o.Scale, o.Clients, o.Servers, o.TicksPerObservation, o.Seed)
	for _, st := range steps {
		if !slices.Contains(want, st.name) && (slices.Contains(byName, st.name) || !slices.Contains(want, "all")) {
			continue
		}
		start := time.Now()
		fmt.Fprintf(out, "\n--- %s ---\n", st.name)
		if err := st.run(); err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		fmt.Fprintf(out, "(%s completed in %v)\n", st.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runConvergence trains every committed convergence scenario, writes
// each trajectory to dir and its reward curve to out, and fails when a
// scenario did not reach its reward threshold.
func runConvergence(out io.Writer, o experiment.Options, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	failed := 0
	for _, sc := range experiment.ConvergenceScenarios() {
		start := time.Now()
		res, err := experiment.RunConvergence(sc, o)
		if err != nil {
			return err
		}
		// Two-space indent, trailing newline: the canonical form the gate
		// and the determinism test both compare byte for byte.
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		path := filepath.Join(dir, "BENCH_convergence_"+sc.Name+".json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return err
		}
		status := fmt.Sprintf("converged at tick %d/%d", res.TimeToThreshold, res.Ticks)
		if !res.Converged {
			status = "DID NOT CONVERGE"
			failed++
		}
		fmt.Fprintf(out, "%-12s %s  final %.4g MB/s  auc %.4g  (%v) → %s\n\n",
			sc.Name, status, res.FinalReward, res.RewardAUC,
			time.Since(start).Round(time.Millisecond), path)
		experiment.WriteConvergence(out, res)
		fmt.Fprintln(out)
	}
	if failed > 0 {
		return fmt.Errorf("%d scenario(s) did not reach their reward threshold", failed)
	}
	return nil
}
