// capes-inspect examines CAPES artifacts on disk: model checkpoints
// (*.ckpt), Replay-DB snapshots and session directories, printing their
// shapes and contents — the operational counterpart to sqlite3/strings
// on the original prototype's files.
//
// Usage:
//
//	capes-inspect model.ckpt
//	capes-inspect replay.db
//	capes-inspect /var/lib/capes/session
//	capes-inspect -tier
//	capes-inspect -stats 127.0.0.1:8080
//	capes-inspect -watch 127.0.0.1:8080 mysession [interval]
//
// -tier prints the SIMD kernel tier the tensor kernels run at on this
// host (scalar|avx2|avx512, honoring CAPES_SIMD) and exits — perf triage
// uses it to tell hosts apart, and CI records it next to benchmark
// baselines.
//
// -stats fetches a live capesd's /stats endpoint and prints each
// session's engine and transport health — the quickest way to see
// whether agents are flapping (reconnects/evictions) or frames are
// being gap-filled or dropped.
//
// -watch polls one session's /history endpoint with an incremental
// ?since= cursor and live-renders its reward/loss/epsilon curves in the
// terminal (redrawn every interval, default 2s) — a poor man's training
// dashboard for a tuning run in progress. Ctrl-C to stop.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"capes/internal/capes"
	"capes/internal/capesd"
	"capes/internal/nn"
	"capes/internal/replay"
	"capes/internal/tensor"
)

func main() {
	if len(os.Args) == 3 && os.Args[1] == "-stats" {
		if err := inspectStats(os.Stdout, os.Args[2]); err != nil {
			fatal(err)
		}
		return
	}
	if (len(os.Args) == 4 || len(os.Args) == 5) && os.Args[1] == "-watch" {
		interval := 2 * time.Second
		if len(os.Args) == 5 {
			d, err := time.ParseDuration(os.Args[4])
			if err != nil || d <= 0 {
				fatal(fmt.Errorf("bad watch interval %q", os.Args[4]))
			}
			interval = d
		}
		if err := watchSession(os.Stdout, os.Args[2], os.Args[3], interval, 0); err != nil {
			fatal(err)
		}
		return
	}
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: capes-inspect <model.ckpt | replay.db | session-dir | -tier | -stats addr | -watch addr session [interval]>")
		os.Exit(2)
	}
	if os.Args[1] == "-tier" {
		fmt.Println(tensor.KernelTier())
		return
	}
	path := os.Args[1]
	info, err := os.Stat(path)
	if err != nil {
		fatal(err)
	}
	if info.IsDir() {
		inspectSession(path)
		return
	}
	// Try model first, then replay snapshot. A model loads at the engine
	// precision, the only one a checkpoint is restored at.
	m, merr := nn.LoadFile[capes.EnginePrecision](path)
	if merr == nil {
		inspectModel(path, m)
		return
	}
	if db, err := replay.LoadFile(path); err == nil {
		inspectReplay(path, db)
		return
	}
	fatal(fmt.Errorf("%s is neither a model checkpoint nor a replay snapshot (as a model: %w)", path, merr))
}

func inspectModel(path string, m *nn.MLP[capes.EnginePrecision]) {
	fmt.Printf("%s: CAPES DNN checkpoint\n", path)
	fmt.Printf("  layer sizes:   %v\n", m.Sizes)
	fmt.Printf("  activation:    %s\n", m.Activation)
	fmt.Printf("  precision:     %s\n", m.Precision())
	fmt.Printf("  parameters:    %d (%.2f MB in memory)\n",
		m.NumParams(), float64(m.Bytes())/1e6)
	if fi, err := os.Stat(path); err == nil {
		fmt.Printf("  on disk:       %.2f MB\n", float64(fi.Size())/1e6)
	}
	if err := m.CheckFinite(); err != nil {
		fmt.Printf("  WARNING:       %v\n", err)
	} else {
		fmt.Printf("  health:        all parameters finite\n")
	}
}

func inspectReplay(path string, db *replay.DB) {
	cfg := db.Config()
	lo, hi := db.Bounds()
	fmt.Printf("%s: CAPES Replay DB snapshot\n", path)
	fmt.Printf("  records:       %d (ticks %d … %d)\n", db.Len(), lo, hi)
	fmt.Printf("  frame width:   %d PIs\n", cfg.FrameWidth)
	fmt.Printf("  stack ticks:   %d (observation size %d)\n", cfg.StackTicks, db.ObservationWidth())
	fmt.Printf("  missing tol.:  %.0f%%\n", cfg.MissingTolerance*100)
	fmt.Printf("  memory:        %.2f MB\n", float64(db.MemoryBytes())/1e6)
	// Coverage: fraction of the tick range that has frames and actions.
	if hi > lo {
		frames, actions := 0, 0
		for t := lo; t <= hi; t++ {
			if _, ok := db.FrameAt(t); ok {
				frames++
			}
			if _, ok := db.ActionAt(t); ok {
				actions++
			}
		}
		span := float64(hi - lo + 1)
		fmt.Printf("  coverage:      %.1f%% frames, %.1f%% actions\n",
			100*float64(frames)/span, 100*float64(actions)/span)
	}
}

func inspectSession(dir string) {
	fmt.Printf("%s: CAPES session directory\n", dir)
	fmt.Printf("  kernel tier:   %s (this host)\n", tensor.KernelTier())
	manifest := filepath.Join(dir, "session.json")
	if buf, err := os.ReadFile(manifest); err == nil {
		var m map[string]any
		if json.Unmarshal(buf, &m) == nil {
			fmt.Printf("  manifest:      %v\n", compactJSON(m))
		}
	}
	if m, err := nn.LoadFile[capes.EnginePrecision](filepath.Join(dir, "model.ckpt")); err == nil {
		fmt.Println()
		inspectModel(filepath.Join(dir, "model.ckpt"), m)
	}
	if db, err := replay.LoadFile(filepath.Join(dir, "replay.db")); err == nil {
		fmt.Println()
		inspectReplay(filepath.Join(dir, "replay.db"), db)
	}
}

// inspectStats pulls a live capesd control plane's /stats and prints a
// per-session health summary, transport counters included.
func inspectStats(w io.Writer, addr string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("capesd %s: /stats returned %s", addr, resp.Status)
	}
	var agg capesd.AggregateStats
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		return fmt.Errorf("capesd %s: decoding /stats: %w", addr, err)
	}

	fmt.Fprintf(w, "%s: capesd, %d sessions (%d running), kernel tier %s\n",
		addr, agg.Totals.Sessions, agg.Totals.Running, agg.KernelTier)
	for _, s := range agg.Sessions {
		tr := s.Transport
		sup := s.Supervisor
		fmt.Fprintf(w, "\n%s (%s, %s) on %s\n", s.Name, s.State, sup.Health, s.Addr)
		if sup.Trips > 0 || sup.ShedFrames > 0 {
			fmt.Fprintf(w, "  supervisor:    %d trips (%d panic, %d divergence, %d watchdog), %d rollbacks, %d failed, %d shed frames\n",
				sup.Trips, sup.PanicTrips, sup.DivergenceTrips, sup.WatchdogTrips,
				sup.Rollbacks, sup.FailedEscalations, sup.ShedFrames)
			if sup.LastTripReason != "" {
				fmt.Fprintf(w, "  last trip:     %s\n", sup.LastTripReason)
			}
		}
		fmt.Fprintf(w, "  engine:        %d train steps, %d replay records, %d vetoes\n",
			s.Engine.TrainSteps, s.Engine.ReplayRecords, s.Engine.Vetoes)
		fmt.Fprintf(w, "  agents:        %d hellos, %d reconnects, %d evictions, %d heartbeats\n",
			tr.Hellos, tr.Reconnects, tr.Evictions, tr.Heartbeats)
		fmt.Fprintf(w, "  frames:        %d complete, %d partial (%d gap-filled slots), %d dropped, %d pending\n",
			tr.CompleteFrames, tr.PartialFrames, tr.GapFilledSlots, tr.DroppedTicks, tr.PendingTicks)
		fmt.Fprintf(w, "  actions:       %d sent, %d dropped\n", tr.ActionsSent, tr.DroppedActions)
		if tr.StaleIndicators > 0 {
			fmt.Fprintf(w, "  stale drops:   %d (old-epoch indicators discarded)\n", tr.StaleIndicators)
		}
		if tr.NonFinitePIs > 0 || s.Engine.NonFinitePIs > 0 {
			fmt.Fprintf(w, "  non-finite:    %d PIs received, %d replaced by their last finite value\n",
				tr.NonFinitePIs, s.Engine.NonFinitePIs)
		}
	}
	t := agg.Totals
	fmt.Fprintf(w, "\ntotals: %d reconnects, %d evictions, %d partial frames, %d dropped ticks, %d dropped actions\n",
		t.Reconnects, t.Evictions, t.PartialFrames, t.DroppedTicks, t.DroppedActions)
	fmt.Fprintf(w, "health: %d healthy, %d degraded, %d quarantined, %d failed; %d trips, %d rollbacks, %d shed frames\n",
		t.Healthy, t.Degraded, t.Quarantined, t.Failed, t.Trips, t.Rollbacks, t.ShedFrames)
	return nil
}

// maxWatchPoints bounds client-side accumulation so an overnight watch
// does not grow without bound; the newest window is what the 64-column
// plots can resolve anyway.
const maxWatchPoints = 4096

// watchSession polls one session's /history endpoint with the ?since=
// cursor (only new points cross the wire each round), accumulates the
// trajectory client-side and redraws the reward/loss/epsilon curves in
// place until interrupted. rounds bounds the number of redraws (0 =
// forever; tests pass a small count).
func watchSession(w io.Writer, addr, name string, interval time.Duration, rounds int) error {
	client := &http.Client{Timeout: 5 * time.Second}
	base := "http://" + addr + "/sessions/" + name
	var pts []capes.HistoryPoint
	cursor := int64(-1)
	for i := 0; rounds == 0 || i < rounds; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		var hist capesd.HistoryResponse
		if err := getJSON(client, base+"/history?since="+strconv.FormatInt(cursor, 10), &hist); err != nil {
			return err
		}
		cursor = hist.Next
		pts = append(pts, hist.Points...)
		if len(pts) > maxWatchPoints {
			pts = pts[len(pts)-maxWatchPoints:]
		}
		var st capesd.SessionStats
		if err := getJSON(client, base, &st); err != nil {
			return err
		}
		// Home + clear-to-end redraws in place instead of scrolling.
		fmt.Fprint(w, "\x1b[H\x1b[2J")
		capesd.RenderSessionChart(w, name, string(st.State), pts)
		fmt.Fprintf(w, "\n(watching %s every %s — Ctrl-C to stop)\n", addr, interval)
	}
	return nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s returned %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func compactJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "capes-inspect:", err)
	os.Exit(1)
}
