// Command perfbench is the repo's benchmark: the CAPES control loop end
// to end on four workloads, plus per-layer timings from a traced run.
// See README.md in this directory for every metric and workload.
//
//	go -C perfbench run . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	go -C perfbench run .                       # all workloads, both modes, a table
//	go -C perfbench run . compare a.json b.json # A/B two sets of result files
//
// The directory is a module of its own (capes/perfbench, replacing capes
// with the parent directory), so the repo's go build ./... and go test
// ./... neither build nor run it: its build and its smoke test cannot
// take CPU from the timing-sensitive tests of the other packages.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"capes/internal/tensor"
)

// outDir receives result files, trace files and temporary checkpoint
// directories. It is relative to this directory, where go -C runs the
// benchmark.
const outDir = "out"

// childEnv names the role a re-executed benchmark binary plays in the
// cluster workload ("solo", "leader" or "follower"); see cluster.go.
const childEnv = "CAPES_BENCH_CHILD"

// options is one run's command line.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// short shrinks set-up, repeats and the layer pass for the smoke test.
	short bool
	ctx   context.Context
}

func (o options) window() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// setups is how many times set-up runs; setup_s is their median. A
// traced run does not report it and sets up once, as the smoke test does.
func (o options) setups() int {
	if o.short || o.trace {
		return 1
	}
	return 3
}

// rounds scales a layer-pass sample count down for the smoke test.
func (o options) rounds(n int) int {
	if o.short {
		return 3
	}
	return n
}

// result is one run of one workload, as written to the result file. The
// driver reads only the last stdout line (see driverLine).
type result struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	LoadModel string                 `json:"load_model"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"ops_attempted"`
	Failed    int64                  `json:"ops_failed"`
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`

	metrics *metricSet
}

func newResult(w spec, o options) *result {
	decls := endToEnd
	if o.trace {
		decls = perLayer
	}
	return &result{
		Workload: w.Name, Trace: o.trace, Seed: o.seed, Seconds: o.seconds,
		LoadModel: loadModel, metrics: newMetricSet(decls),
	}
}

// fail books failed operations with the reason for each.
func (r *result) fail(n int64, notes ...string) {
	if n > 0 {
		r.Failed += n
		r.Notes = append(r.Notes, notes...)
	}
}

// timeSetup runs set-up o.setups() times, tearing down between passes,
// and records the median as setup_s. The last pass's state is kept for
// the measured window.
func (r *result) timeSetup(o options, setup, teardown func() error) error {
	var took []float64
	for i := 0; i < o.setups(); i++ {
		if i > 0 {
			if err := teardown(); err != nil {
				return fmt.Errorf("teardown between set-ups: %w", err)
			}
		}
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(start).Seconds())
		if err := o.ctx.Err(); err != nil {
			return err
		}
	}
	if !o.trace {
		r.metrics.set("setup_s", median(took))
		r.metrics.samples["setup_s"] = len(took)
	}
	return nil
}

// finish freezes the metrics and the verdict.
func (r *result) finish() error {
	if r.Attempted < 1 {
		return fmt.Errorf("%s: no operation attempted", r.Workload)
	}
	if r.Failed > r.Attempted {
		r.Failed = r.Attempted
	}
	r.Correct = r.Failed == 0
	var err error
	r.Metrics, err = r.metrics.export(!r.Trace)
	r.Samples = r.metrics.samples
	return err
}

// driverLine is the one JSON object the driver reads.
func (r *result) driverLine() string {
	buf, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(buf)
}

// environment is the block every result file carries; numbers from two
// files are comparable only when their blocks agree.
type environment struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	KernelTier string `json:"kernel_tier"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func readEnvironment() environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		Commit: commit, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), KernelTier: tensor.KernelTier(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

// resultFile is what the benchmark writes under outDir.
type resultFile struct {
	Env  environment `json:"environment"`
	Runs []*result   `json:"runs"`
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runOne measures one workload once and freezes the result.
func runOne(w spec, o options) (*result, error) {
	if o.short {
		w = w.shortened()
	}
	res, err := w.run(w, o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return res, res.finish()
}

// printResult writes the human-readable table of one run.
func printResult(r *result) {
	mode := "end-to-end (untraced)"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("\n== %s — %s — %s — seed %d, %.0fs window\n", r.Workload, mode, r.LoadModel, r.Seed, r.Seconds)
	for _, name := range slices.Sorted(maps.Keys(r.Metrics)) {
		v := r.Metrics[name]
		if r.Trace && v.Value == 0 {
			continue // not exercised by this workload
		}
		line := fmt.Sprintf("  %-34s %14.4f %s", name, v.Value, v.Unit)
		if n := r.Samples[name]; n > 0 {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	fmt.Printf("  %-34s %14d\n  %-34s %14d\n", "ops_attempted", r.Attempted, "ops_failed", r.Failed)
	for _, n := range r.Notes {
		fmt.Println("  note:", n)
	}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	// SIGINT/SIGTERM cancel the context: child processes are killed,
	// deferred clean-up removes temporary checkpoint directories.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if role := os.Getenv(childEnv); role != "" {
		return clusterChild(ctx, role)
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		return compareMain(os.Args[2:])
	}

	var (
		name    = flag.String("workload", "", "workload to run (default: all four, untraced then traced)")
		seed    = flag.Int64("seed", 1, "seed for the generated inputs and the session")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics through capesd; 1: per-layer metrics from the traced run")
		out     = flag.String("out", "", "result file (default "+outDir+"/result-<workload>-trace<n>-seed<n>.json)")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, ctx: ctx}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}

	file := resultFile{Env: readEnvironment()}
	fmt.Printf("environment: commit %s, nproc %d, GOMAXPROCS %d, %s, kernel tier %s\n",
		file.Env.Commit, file.Env.NProc, file.Env.GOMAXPROCS, file.Env.GoVersion, file.Env.KernelTier)

	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		res, err := runOne(w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		file.Runs = append(file.Runs, res)
		path := *out
		if path == "" {
			path = filepath.Join(outDir, fmt.Sprintf("result-%s-trace%d-seed%d.json", w.Name, *trace, o.seed))
		}
		if err := writeJSON(path, file); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		printResult(res)
		fmt.Println(res.driverLine())
		if !res.Correct {
			return 1
		}
		return 0
	}

	// No workload named: the whole benchmark in one command.
	ok := true
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			o.trace = traced
			res, err := runOne(w, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			file.Runs = append(file.Runs, res)
			printResult(res)
			ok = ok && res.Correct
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, fmt.Sprintf("results-seed%d.json", o.seed))
	}
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println("\nresults written to", path)
	if !ok {
		fmt.Fprintln(os.Stderr, "perfbench: a correctness check failed")
		return 1
	}
	return 0
}
