// capesd is the CAPES control node: it hosts one or more tuning
// sessions, each an Interface Daemon + DRL engine pair (Figure 1) with
// its own action space, objective and checkpoint directory. Sessions are
// declared in a JSON config file and managed at runtime over an
// HTTP/JSON control plane. README's "capesd configuration reference"
// lists every key.
//
// Usage:
//
//	capesd -config capesd.json
//
// with capesd.json like:
//
//	{
//	  "http": "127.0.0.1:8080",
//	  "sessions": [
//	    {"name": "alpha", "listen": "127.0.0.1:7070", "clients": 5,
//	     "checkpoint_dir": "/var/lib/capes/alpha"},
//	    {"name": "beta", "listen": "127.0.0.1:7071", "clients": 3}
//	  ]
//	}
//
// On SIGINT/SIGTERM the process drains gracefully: every session is
// paused (no further actions or train steps), a final checkpoint is
// written concurrently for each checkpoint-enabled session, and the
// process exits 0 — or 1 when any drain/stop step failed, so process
// supervisors can tell a clean handoff from a lossy one.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"capes/internal/capesd"
)

func main() {
	cfg, err := buildConfig(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fatal(err)
	}
	mgr, err := capesd.Boot(cfg)
	if err != nil {
		fatal(err)
	}
	for _, s := range mgr.Sessions() {
		st := s.Stats()
		restored := ""
		if st.Restored {
			restored = " (restored from " + st.CheckpointDir + ")"
		}
		fmt.Printf("capesd: session %s listening on %s for %d clients%s\n",
			st.Name, st.Addr, st.Clients, restored)
	}
	if addr := mgr.HTTPAddr(); addr != "" {
		fmt.Printf("capesd: control plane on http://%s\n", addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("capesd: %v: draining sessions\n", got)

	// Graceful drain: pause everything first so the final checkpoints
	// capture a quiesced trajectory, then snapshot stats, then tear
	// down. Shutdown's own per-session checkpoint is a no-op re-save
	// after the drain's.
	exit := 0
	_, drainErrs := mgr.Drain()
	for name, err := range drainErrs {
		fmt.Fprintf(os.Stderr, "capesd: drain: session %s: %v\n", name, err)
		exit = 1
	}
	agg := mgr.AggregateStats()
	if errs := mgr.Shutdown(); len(errs) != 0 {
		for _, err := range errs {
			fmt.Fprintln(os.Stderr, "capesd: shutdown:", err)
		}
		exit = 1
	}
	for _, st := range agg.Sessions {
		fmt.Printf("capesd: session %s: health %s, train steps %d, replay records %d, vetoes %d\n",
			st.Name, st.Supervisor.Health, st.Engine.TrainSteps, st.Engine.ReplayRecords, st.Engine.Vetoes)
	}
	fmt.Printf("capesd: shutting down (%d sessions, %d total train steps)\n",
		agg.Totals.Sessions, agg.Totals.TrainSteps)
	os.Exit(exit)
}

// buildConfig loads the -config file, capesd's one flag.
func buildConfig(args []string, errOut *os.File) (capesd.Config, error) {
	fs := flag.NewFlagSet("capesd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	config := fs.String("config", "", "JSON config file (README: capesd configuration reference)")
	if err := fs.Parse(args); err != nil {
		return capesd.Config{}, err
	}
	if fs.NArg() != 0 {
		return capesd.Config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *config == "" {
		return capesd.Config{}, errors.New("-config is required")
	}
	return capesd.LoadConfig(*config)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "capesd:", err)
	os.Exit(1)
}
