// capes-bench regenerates every table and figure of the paper's
// evaluation section against the simulated cluster. Each experiment
// prints rows with the same schema the paper reports.
//
// Usage:
//
//	capes-bench -experiment all -scale 0.05
//	capes-bench -experiment fig2 -scale 1.0        # full 12/24 h sessions
//	capes-bench -experiment table2
//
// Experiments: table1, fig2, fig3, fig4, fig5, fig6, table2, comparison,
// ssd, hypersearch (by name only), all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
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
		exp     = fs.String("experiment", "all", "which experiments to run, comma-separated (table1|fig2|fig3|fig4|fig5|fig6|table2|comparison|ssd|hypersearch|all)")
		scale   = fs.Float64("scale", 0.05, "session-duration scale (1.0 = the paper's 12/24/70 h schedule)")
		seed    = fs.Int64("seed", 1, "random seed")
		clients = fs.Int("clients", 5, "simulated client nodes")
		servers = fs.Int("servers", 4, "simulated server nodes")
		obs     = fs.Int("obs-ticks", 5, "sampling ticks per observation (paper: 10)")
		outPath = fs.String("out", "", "also append output to this file")
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
	// which is gridpoints × seeds full sessions and so runs only when
	// asked for by name.
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
	}
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
		if !slices.Contains(want, st.name) && (st.name == "hypersearch" || !slices.Contains(want, "all")) {
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
