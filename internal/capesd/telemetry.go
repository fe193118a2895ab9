package capesd

import (
	"fmt"
	"io"

	"capes/internal/capes"
	"capes/internal/chart"
)

// HistoryResponse is the /sessions/{name}/history payload. Next is the
// newest tick in Points — pass it back as ?since= to poll incrementally
// (when Points is empty, Next echoes the request cursor so pollers can
// always feed the response back verbatim).
type HistoryResponse struct {
	Session string               `json:"session"`
	Points  []capes.HistoryPoint `json:"points"`
	Next    int64                `json:"next"`
}

// RenderSessionChart renders a session's training-telemetry curves —
// reward, smoothed loss and exploration rate over ticks — as ASCII line
// plots (internal/chart): the /sessions/{name}/chart payload and the
// frame capes-inspect -watch redraws. Deterministic output, sized for an
// 80-column terminal.
func RenderSessionChart(w io.Writer, name, state string, pts []capes.HistoryPoint) {
	fmt.Fprintf(w, "session %s (%s): %d telemetry points\n", name, state, len(pts))
	if len(pts) == 0 {
		fmt.Fprintln(w, "  (no telemetry yet — the engine records every history_every ticks)")
		return
	}
	ticks := make([]int64, len(pts))
	reward := make([]float64, len(pts))
	loss := make([]float64, len(pts))
	eps := make([]float64, len(pts))
	for i, p := range pts {
		ticks[i] = p.Tick
		reward[i] = p.Reward
		loss[i] = p.Loss
		eps[i] = p.Epsilon
	}
	last := pts[len(pts)-1]
	fmt.Fprintf(w, "  tick %d  reward %.4g  loss %.4g  td-err %.4g  eps %.3f  steps %d  actions %d random / %d calculated\n\n",
		last.Tick, last.Reward, last.Loss, last.TDErrEMA, last.Epsilon,
		last.TrainSteps, last.RandomActions, last.CalcActions)
	chart.LinePlot(w, "reward (objective)", ticks, reward, 64, 10)
	fmt.Fprintln(w)
	chart.LinePlot(w, "training loss (EWMA)", ticks, loss, 64, 10)
	fmt.Fprintln(w)
	chart.LinePlot(w, "epsilon (exploration)", ticks, eps, 64, 6)
}
