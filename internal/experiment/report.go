package experiment

import (
	"fmt"
	"io"

	"capes/internal/capes"
	"capes/internal/chart"
)

// Report writers: each Run* result can be rendered as the text table the
// paper's figure/table reports, for cmd/capes-bench.

func mb(v float64) float64 { return v / 1e6 }

// WriteTable1 renders the hyperparameter listing.
func WriteTable1(w io.Writer, h capes.Hyperparameters) {
	fmt.Fprintln(w, "Table 1: hyperparameters")
	for _, row := range h.Table1() {
		fmt.Fprintf(w, "  %-36s %s\n", row[0], row[1])
	}
}

// WriteFig2 renders the Figure 2 rows.
func WriteFig2(w io.Writer, rows []Fig2Row) {
	fmt.Fprintln(w, "Figure 2: random read/write workloads (MB/s, 95% CI)")
	fmt.Fprintf(w, "  %-6s %16s %16s %16s %8s %8s %6s %6s\n",
		"ratio", "baseline", "12h", "24h", "gain12", "gain24", "w12", "w24")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-6s %8.2f ±%5.2f %8.2f ±%5.2f %8.2f ±%5.2f %+7.1f%% %+7.1f%% %6.0f %6.0f\n",
			r.Ratio,
			mb(r.Baseline.Mean), mb(r.Baseline.CI),
			mb(r.After12h.Mean), mb(r.After12h.CI),
			mb(r.After24h.Mean), mb(r.After24h.CI),
			r.Gain12Pct, r.Gain24Pct, r.Window12, r.Window24)
	}
	groups := make([]string, len(rows))
	values := make([][]float64, len(rows))
	for i, r := range rows {
		groups[i] = r.Ratio
		values[i] = []float64{mb(r.Baseline.Mean), mb(r.After12h.Mean), mb(r.After24h.Mean)}
	}
	chart.GroupedBars(w, "", " MB/s", groups, []string{"baseline", "12h", "24h"}, values, 44)
}

// WriteFig3 renders the Figure 3 rows.
func WriteFig3(w io.Writer, rows []Fig3Row) {
	fmt.Fprintln(w, "Figure 3: fileserver and sequential write (MB/s, 95% CI)")
	fmt.Fprintf(w, "  %-12s %16s %16s %8s %6s\n", "workload", "baseline", "tuned", "gain", "window")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %8.2f ±%5.2f %8.2f ±%5.2f %+7.1f%% %6.0f\n",
			r.Workload,
			mb(r.Baseline.Mean), mb(r.Baseline.CI),
			mb(r.Tuned.Mean), mb(r.Tuned.CI),
			r.GainPct, r.Window)
	}
}

// WriteFig4 renders the Figure 4 sessions.
func WriteFig4(w io.Writer, sessions []Fig4Session) {
	fmt.Fprintln(w, "Figure 4: fileserver sessions spread over two weeks (MB/s, 95% CI)")
	fmt.Fprintf(w, "  %-8s %16s %16s %8s\n", "session", "baseline", "tuned", "gain")
	for _, s := range sessions {
		fmt.Fprintf(w, "  %-8d %8.2f ±%5.2f %8.2f ±%5.2f %+7.1f%%\n",
			s.Session,
			mb(s.Baseline.Mean), mb(s.Baseline.CI),
			mb(s.Tuned.Mean), mb(s.Tuned.CI),
			s.GainPct)
	}
}

// WriteFig5 renders the Figure 5 prediction-error series.
func WriteFig5(w io.Writer, r *Fig5Result) {
	fmt.Fprintln(w, "Figure 5: prediction error during training")
	fmt.Fprintf(w, "  train steps: %d, early-quarter mean loss %.5f, late-quarter mean loss %.5f\n",
		r.TrainSteps, r.EarlyMean, r.LateMean)
	xs := make([]int64, len(r.Series))
	ys := make([]float64, len(r.Series))
	for i, p := range r.Series {
		xs[i] = p.Tick
		ys[i] = p.Loss
	}
	chart.LinePlot(w, "  smoothed loss over the session:", xs, ys, 64, 10)
}

// WriteFig6 renders the Figure 6 comparison.
func WriteFig6(w io.Writer, r *Fig6Result) {
	fmt.Fprintln(w, "Figure 6: training session's impact on throughput (MB/s, 95% CI)")
	for i, b := range r.Baselines {
		fmt.Fprintf(w, "  baseline %d:        %8.2f ±%5.2f\n", i+1, mb(b.Mean), mb(b.CI))
	}
	fmt.Fprintf(w, "  training session:  %8.2f ±%5.2f\n", mb(r.Training.Mean), mb(r.Training.CI))
	fmt.Fprintf(w, "  training/baseline: %.3f\n", r.RatioVsMeanBaseline)
}

// WriteTable2 renders the technical measurements.
func WriteTable2(w io.Writer, t *Table2) {
	fmt.Fprintln(w, "Table 2: technical measurements")
	fmt.Fprintf(w, "  %-44s %.4f s\n", "duration of training step (CPU, paper shape)", t.TrainStepSeconds)
	fmt.Fprintf(w, "  %-44s %.4f s\n", "duration of training step (CPU, this repro)", t.TrainStepSecondsExp)
	fmt.Fprintf(w, "  %-44s %d\n", "number of records of the Replay DB", t.ReplayRecords)
	fmt.Fprintf(w, "  %-44s %.1f MB\n", "size of the DNN model", float64(t.ModelBytes)/1e6)
	fmt.Fprintf(w, "  %-44s %.2f MB\n", "total size of the Replay DB on disk", float64(t.ReplayDiskBytes)/1e6)
	fmt.Fprintf(w, "  %-44s %.2f MB\n", "total size of the Replay DB in memory", float64(t.ReplayMemoryBytes)/1e6)
	fmt.Fprintf(w, "  %-44s %d\n", "performance indicators per client", t.PIsPerClient)
	fmt.Fprintf(w, "  %-44s %d\n", "observation size (floats)", t.ObservationSize)
	fmt.Fprintf(w, "  %-44s %.0f B\n", "average message size per client", t.AvgMessageBytes)
}

// WriteComparison renders the tuner comparison.
func WriteComparison(w io.Writer, rows []ComparisonRow) {
	fmt.Fprintln(w, "Tuner comparison (steady-state MB/s)")
	fmt.Fprintf(w, "  %-16s %10s %8s %8s  %s\n", "tuner", "tput", "gain", "probes", "values")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %10.2f %+7.1f%% %8d  %v\n",
			r.Tuner, mb(r.Tput), r.GainPct, r.Probes, r.Values)
	}
}
