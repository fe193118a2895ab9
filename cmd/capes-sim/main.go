// capes-sim runs the simulated Lustre-like cluster as a standalone
// target system: it advances the cluster on a wall-clock-driven virtual
// clock and attaches one Monitoring/Control Agent per simulated client,
// all connecting to a capesd Interface Daemon. Together with capesd this
// demonstrates the full distributed deployment of Figure 1 on localhost,
// with capesd.json declaring one 5-client session listening on :7070:
//
//	capesd    -config capesd.json &
//	capes-sim -daemon 127.0.0.1:7070 -workload randrw-1:9 -tick-ms 5
//
// -tick-ms compresses time: each real 5 ms is one simulated second.
//
// With -sessions, one capes-sim process exercises several capesd
// sessions at once — one independent simulated cluster per address,
// each seeded differently:
//
//	capesd    -config capesd.json &   # sessions on :7070 and :7071
//	capes-sim -sessions 127.0.0.1:7070,127.0.0.1:7071 -ticks 3600
//
// With -chaos, every agent connects through a seeded fault-injecting
// proxy (connection kills, stalls, latency, one-way partitions) to
// demonstrate the transport's reconnect and gap-fill behavior against a
// live capesd; -chaos-seed replays the same fault schedule.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"capes/internal/agent"
	"capes/internal/capes"
	"capes/internal/faultnet"
	"capes/internal/replay"
	"capes/internal/storesim"
	"capes/internal/workload"
)

func parseWorkload(name string, seed int64) (workload.Generator, error) {
	switch {
	case strings.HasPrefix(name, "randrw-"):
		var r, w int
		if _, err := fmt.Sscanf(strings.TrimPrefix(name, "randrw-"), "%d:%d", &r, &w); err != nil {
			return nil, fmt.Errorf("bad randrw ratio %q (want e.g. randrw-1:9)", name)
		}
		return workload.NewRandRW(r, w, seed), nil
	case name == "fileserver":
		return workload.NewFileserver(32, seed), nil
	case name == "seqwrite":
		return workload.NewSeqWrite(5, seed), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

// clusterOpts configures one simulated cluster attached to one capesd
// session address.
type clusterOpts struct {
	daemon  string
	label   string // log prefix; "" in single-cluster mode
	wl      string
	clients int
	servers int
	tickMs  int
	ticks   int64
	seed    int64
	report  int64
	// chaos interposes a seeded faultnet proxy between the agents and
	// the daemon: connection kills, latency, stalls and one-way
	// partitions, for demonstrating (and soak-testing) the transport's
	// reconnect/gap-fill behavior end to end.
	chaos     bool
	chaosSeed int64
	// offline bounds how long the cluster keeps simulating with every
	// send skipped on ErrReconnecting before giving up (0 = forever).
	offline time.Duration
}

// runCluster builds a cluster + its node agents and drives ticks until
// stop closes or opts.ticks is reached.
func runCluster(opts clusterOpts, stop <-chan struct{}, out io.Writer) error {
	gen, err := parseWorkload(opts.wl, opts.seed)
	if err != nil {
		return err
	}
	p := storesim.DefaultParams()
	p.Clients = opts.clients
	p.Servers = opts.servers
	p.Seed = opts.seed
	cluster, err := storesim.New(p, gen)
	if err != nil {
		return err
	}

	// In chaos mode the agents dial a fault-injecting proxy instead of
	// the daemon directly. Fault points are byte counts, sized for this
	// traffic (≈ 100 B per 10-PI indicators frame, 25 B per action): a
	// kill every 60–450 ticks per connection. The kill budget floor stays
	// well above the 41-byte handshake so registration always survives.
	dialAddr := opts.daemon
	var px *faultnet.Proxy
	if opts.chaos {
		px, err = faultnet.New("127.0.0.1:0", opts.daemon, faultnet.Config{
			Seed:           opts.chaosSeed,
			KillAfterMin:   6 << 10,
			KillAfterMax:   44 << 10,
			StallEvery:     22 << 10,
			StallFor:       500 * time.Millisecond,
			LatencyMax:     2 * time.Millisecond,
			PartitionProb:  0.2,
			PartitionAfter: 1 << 10,
		})
		if err != nil {
			return fmt.Errorf("chaos proxy for %s: %w", opts.daemon, err)
		}
		defer px.Close()
		dialAddr = px.Addr()
		fmt.Fprintf(out, "capes-sim: %schaos proxy %s -> %s (seed %d)\n",
			opts.label, dialAddr, opts.daemon, opts.chaosSeed)
	}

	// One agent per simulated client; client 0 doubles as the control
	// agent that applies broadcast parameter changes cluster-wide (the
	// evaluation tunes all clients to the same values).
	agents := make([]*agent.NodeAgent, opts.clients)
	for i := 0; i < opts.clients; i++ {
		role := "monitor"
		if i == 0 {
			role = "monitor+control"
		}
		a, err := dialRetry(dialAddr, i, storesim.NumClientPIs, role)
		if err != nil {
			return fmt.Errorf("connecting node %d to %s: %w", i, opts.daemon, err)
		}
		defer a.Close()
		agents[i] = a
	}
	fmt.Fprintf(out, "capes-sim: %s%d clients connected to %s, workload %s\n",
		opts.label, opts.clients, opts.daemon, opts.wl)

	// Apply actions from capesd as they arrive.
	go func() {
		for act := range agents[0].Actions() {
			if len(act.Values) >= 2 {
				cluster.SetAllWindows(act.Values[0])
				cluster.SetAllRateLimits(act.Values[1])
			}
		}
	}()

	ticker := time.NewTicker(time.Duration(opts.tickMs) * time.Millisecond)
	defer ticker.Stop()

	pis := make([]float64, storesim.NumClientPIs)
	var tick int64
	var sumTput float64
	var skipped int64
	lastDelivered := time.Now()
	report := func(reason string) {
		fmt.Fprintf(out, "capes-sim: %s%s at tick %d", opts.label, reason, tick)
		if skipped > 0 {
			fmt.Fprintf(out, ", %d sends skipped while reconnecting", skipped)
		}
		fmt.Fprintln(out)
		if px != nil {
			st := px.Stats()
			fmt.Fprintf(out, "capes-sim: %schaos: %d conns, %d kills, %d stalls, %d partitions, %d B dropped\n",
				opts.label, st.Connections, st.Kills, st.Stalls, st.Partitions, st.BytesDropped)
		}
	}
	for {
		select {
		case <-stop:
			report("stopped")
			return nil
		case <-ticker.C:
			tick++
			cluster.Tick(tick)
			delivered := false
			for i, a := range agents {
				cluster.ClientPIs(i, pis)
				if err := a.SendIndicators(tick, pis); err != nil {
					// A reconnecting agent loses this tick at the source;
					// the daemon gap-fills around it. Anything else
					// (closed, registration rejected) is fatal.
					if errors.Is(err, agent.ErrReconnecting) {
						skipped++
						continue
					}
					return fmt.Errorf("node %d send: %w", i, err)
				}
				delivered = true
			}
			if delivered {
				lastDelivered = time.Now()
			} else if down := time.Since(lastDelivered); opts.offline > 0 && down > opts.offline {
				// Every agent has been spinning on ErrReconnecting past
				// the offline budget: the daemon is gone, not flapping.
				// Exit non-zero instead of simulating into the void.
				report("abandoned")
				return fmt.Errorf("daemon %s unreachable for %v (offline budget %v)",
					opts.daemon, down.Round(time.Second), opts.offline)
			}
			sumTput += cluster.AggregateThroughput()
			if opts.report > 0 && tick%opts.report == 0 {
				bytes, msgs := agents[0].TrafficStats()
				avg := int64(0)
				if msgs > 0 {
					avg = bytes / msgs
				}
				fmt.Fprintf(out, "capes-sim: %stick %d  window=%.0f rate=%.0f  tput=%.2f MB/s (avg %.2f)  msg=%d B\n",
					opts.label, tick, cluster.Window(0), cluster.RateLimit(0),
					cluster.AggregateThroughput()/1e6, sumTput/float64(tick)/1e6, avg)
			}
			if opts.ticks > 0 && tick >= opts.ticks {
				fmt.Fprintf(out, "capes-sim: %sdone after %d ticks, mean throughput %.2f MB/s\n",
					opts.label, tick, sumTput/float64(tick)/1e6)
				report("done")
				return nil
			}
		}
	}
}

// dialRetry connects one node agent, retrying briefly: in chaos mode
// the first dial can race a proxy fault, and on a normal boot capesd
// may still be binding its listener.
func dialRetry(addr string, node, numPIs int, role string) (*agent.NodeAgent, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(200 * time.Millisecond)
		}
		a, err := agent.Dial(addr, node, numPIs, role)
		if err == nil {
			return a, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// clusterBenchWidth sizes the synthetic observation so the per-step
// gradient computation is big enough for the scaling measurement to mean
// something (the network is square in the observation width).
const clusterBenchWidth = 30

// runClusterBench boots an in-process data-parallel co-training cluster
// — one leader plus n followers over loopback — on a deterministic
// synthetic workload, and reports step throughput, aggregate sample
// throughput and a parameter checksum. The checksum is bit-identical
// across any n for the same seed and tick count: that is the cluster's
// determinism contract, measured from the command line.
func runClusterBench(n int, ticks, seed int64, out io.Writer) error {
	if ticks <= 0 {
		ticks = 2000
	}
	build := func(cc *capes.ClusterConfig) (*capes.Engine, *int64, error) {
		space, err := capes.NewActionSpace(capes.Tunable{Name: "p", Min: 0, Max: 100, Step: 5, Default: 50})
		if err != nil {
			return nil, nil, err
		}
		h := capes.DefaultHyperparameters()
		h.TicksPerObservation = 10
		h.TrainStartTicks = 64
		cfg := capes.Config{
			Hyper:      h,
			Space:      space,
			Objective:  capes.SumIndices(0),
			FrameWidth: clusterBenchWidth,
			Seed:       seed,
			Training:   true,
			Tuning:     true,
			Cluster:    cc,
		}
		tick := new(int64)
		eng, err := capes.NewEngine(cfg,
			func() (replay.Frame, error) {
				f := make(replay.Frame, clusterBenchWidth)
				for i := range f {
					f[i] = float64((*tick*7+int64(i)*13)%101) / 101
				}
				return f, nil
			},
			func([]float64) error { return nil })
		return eng, tick, err
	}

	leader, ltick, err := build(&capes.ClusterConfig{
		Role:           capes.ClusterLeader,
		Listen:         "127.0.0.1:0",
		CollectTimeout: 30 * time.Second,
	})
	if err != nil {
		return err
	}
	defer leader.Stop()
	engines := []*capes.Engine{leader}
	tickVars := []*int64{ltick}
	for i := 0; i < n; i++ {
		f, ftick, err := build(&capes.ClusterConfig{
			Role:        capes.ClusterFollower,
			LeaderAddr:  leader.ClusterAddr(),
			Rank:        i + 1,
			SyncTimeout: 30 * time.Second,
		})
		if err != nil {
			return err
		}
		defer f.Stop()
		if err := f.ClusterSync(); err != nil {
			return fmt.Errorf("follower %d sync: %w", i+1, err)
		}
		engines = append(engines, f)
		tickVars = append(tickVars, ftick)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i, eng := range engines {
		wg.Add(1)
		go func(eng *capes.Engine, tick *int64) {
			defer wg.Done()
			for *tick = 1; *tick <= ticks; *tick++ {
				eng.Tick(*tick)
			}
		}(eng, tickVars[i])
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := leader.Stats()
	var checksum float64
	for _, p := range leader.Agent().Online.FlatParams() {
		checksum += float64(p)
	}
	stepsPerSec := float64(st.TrainSteps) / elapsed.Seconds()
	samplesPerSec := stepsPerSec * float64(capes.DefaultHyperparameters().MinibatchSize) * float64(n+1)
	fmt.Fprintf(out, "cluster-bench: followers=%d ticks=%d steps=%d elapsed=%s steps/s=%.0f samples/s=%.0f param-checksum=%.9e\n",
		n, ticks, st.TrainSteps, elapsed.Round(time.Millisecond), stepsPerSec, samplesPerSec, checksum)
	if cs := st.Cluster; cs != nil {
		fmt.Fprintf(out, "cluster-bench: aggregated=%d solo=%d frames=%d stale=%d evictions=%d\n",
			cs.AggrSteps, cs.SoloSteps, cs.FramesAccepted, cs.FramesStale, cs.Evictions)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "capes-sim:", err)
		os.Exit(1)
	}
}

// run parses args and drives one simulated cluster per session address
// until every cluster is done, one fails (which stops the others), or
// SIGINT/SIGTERM arrives.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("capes-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		daemon   = fs.String("daemon", "127.0.0.1:7070", "capesd address")
		sessions = fs.String("sessions", "", "comma-separated capesd session addresses; one independent cluster per address (overrides -daemon)")
		wl       = fs.String("workload", "randrw-1:9", "workload (randrw-R:W | fileserver | seqwrite)")
		clients  = fs.Int("clients", 5, "simulated clients per cluster")
		servers  = fs.Int("servers", 4, "simulated servers per cluster")
		tickMs   = fs.Int("tick-ms", 10, "real milliseconds per simulated second")
		ticks    = fs.Int64("ticks", 0, "stop after this many ticks (0 = run until signal)")
		seed     = fs.Int64("seed", 1, "random seed (cluster i uses seed+i)")
		report   = fs.Int64("report-every", 600, "print throughput every N ticks")
		offline  = fs.Duration("offline-budget", 2*time.Minute, "exit non-zero after this long with every send skipped on reconnect (0 = retry forever)")
		chaos    = fs.Bool("chaos", false, "route agents through a fault-injecting proxy (kills, stalls, latency, partitions)")
		chaosSd  = fs.Int64("chaos-seed", 1, "chaos fault-schedule seed (cluster i uses seed+i; same seed replays the same faults)")
		cluFols  = fs.Int("cluster-followers", -1, "run the in-process data-parallel co-training bench instead of the simulator: one leader + N followers over loopback (0 = solo-leader baseline, -1 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cluFols >= 0 {
		return runClusterBench(*cluFols, *ticks, *seed, stdout)
	}

	addrs := []string{*daemon}
	if *sessions != "" {
		addrs = addrs[:0]
		for _, a := range strings.Split(*sessions, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return fmt.Errorf("-sessions lists no addresses")
		}
	}

	ctx, halt := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer halt()

	var wg sync.WaitGroup
	errs := make(chan error, len(addrs))
	for i, addr := range addrs {
		opts := clusterOpts{
			daemon:  addr,
			wl:      *wl,
			clients: *clients,
			servers: *servers,
			tickMs:  *tickMs,
			ticks:   *ticks,
			seed:    *seed + int64(i),
			report:  *report,

			chaos:     *chaos,
			chaosSeed: *chaosSd + int64(i),
			offline:   *offline,
		}
		if len(addrs) > 1 {
			opts.label = fmt.Sprintf("[%s] ", addr)
		}
		wg.Add(1)
		go func(opts clusterOpts) {
			defer wg.Done()
			if err := runCluster(opts, ctx.Done(), stdout); err != nil {
				// Fail fast: stop the sibling clusters rather than
				// simulating half a deployment until signal.
				errs <- fmt.Errorf("%s: %w", opts.daemon, err)
				halt()
			}
		}(opts)
	}
	wg.Wait()
	close(errs)
	var all []error
	for err := range errs {
		all = append(all, err)
	}
	return errors.Join(all...)
}
