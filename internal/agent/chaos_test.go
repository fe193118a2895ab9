package agent

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capes/internal/faultnet"
	"capes/internal/wire"
)

// TestChaosSoak drives a full cluster — 4 node agents, each a
// monitor+control pair — through a seeded faultnet proxy that kills
// connections, stalls readers past the liveness deadline, adds latency,
// and one-way-partitions the action path. The test asserts the three
// properties the transport promises under fault:
//
//  1. No desync: every emitted frame segment decodes to one internally
//     consistent (tick, node, pi) triple — a differential decoder fed
//     diffs from the wrong epoch would corrupt this immediately.
//  2. Exact accounting: every tick the daemon started is a complete
//     frame, a gap-filled partial, a dropped tick, or still pending;
//     every action attempt was sent or dropped. Nothing leaks, and no
//     tick reaches the sink twice.
//  3. Liveness: the control loop keeps emitting frames through the
//     chaos (gap-fill from latest), and reconnects actually happened.
func TestChaosSoak(t *testing.T) {
	const (
		nodes  = 4
		numPIs = 4
	)
	totalTicks := int64(2000)
	if testing.Short() {
		totalTicks = 350
	}

	var (
		frameMu   sync.Mutex
		frameErr  string
		frames    int64
		lastTicks = make([]int64, nodes) // newest tick seen per node slot
		delivered = map[int64]bool{}     // ticks the sink has received
	)
	frameCh := make(chan int64, 256)
	onFrame := func(tick int64, f []float64) {
		frameMu.Lock()
		defer frameMu.Unlock()
		frames++
		if delivered[tick] {
			frameErr = fmt.Sprintf("tick %d delivered twice", tick)
			return
		}
		delivered[tick] = true
		// Each node's segment carries pis[j] = tick*10000 + node*100 + j.
		// Gap-filled slots may lag the frame tick but must never go
		// backwards, mix ticks within a segment, or exceed what was sent.
		for n := 0; n < nodes; n++ {
			seg := f[n*numPIs : (n+1)*numPIs]
			base := seg[0]
			for j, v := range seg {
				if v != base+float64(j) {
					frameErr = fmt.Sprintf("tick %d node %d: segment %v mixes ticks", tick, n, seg)
					return
				}
			}
			st := (base - float64(n*100)) / 10000
			if st != math.Trunc(st) || st < 1 || st > float64(totalTicks) {
				frameErr = fmt.Sprintf("tick %d node %d: segment %v decodes to bogus tick %v", tick, n, seg, st)
				return
			}
			if int64(st) < lastTicks[n] {
				frameErr = fmt.Sprintf("tick %d node %d: segment tick went backwards %d -> %v", tick, n, lastTicks[n], st)
				return
			}
			lastTicks[n] = int64(st)
		}
		select {
		case frameCh <- tick:
		default:
		}
	}

	d, err := NewDaemonOpts("127.0.0.1:0", nodes, numPIs, onFrame, nil, DaemonOpts{
		LivenessTimeout:     150 * time.Millisecond,
		PartialFrameTimeout: 60 * time.Millisecond,
		MaxPendingTicks:     64,
		BroadcastTimeout:    500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Fault points are byte counts, so they are derived from the message
	// every tick sends — a full 4-PI indicators frame — which puts a kill
	// every 13–44 messages on each connection and a stall every 52,
	// whatever the codec. (Senders are paced by the sleep below, so how
	// fast the host runs does not change how many bytes cross the proxy.)
	msgBytes, err := wire.MessageBytes(&wire.Envelope{Type: wire.MsgIndicators, Indicators: &wire.Indicators{
		NodeID: nodes - 1, Tick: totalTicks, Epoch: 1,
		Indices: []int{0, 1, 2, 3}, Values: []float64{1e4 * float64(totalTicks), 1, 2, 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	msg := int64(msgBytes)
	p, err := faultnet.New("127.0.0.1:0", d.Addr(), faultnet.Config{
		Seed:           20170614, // CAPES submission era; any seed replays
		KillAfterMin:   13 * msg,
		KillAfterMax:   44 * msg,
		StallEvery:     52 * msg,
		StallFor:       200 * time.Millisecond, // > liveness: forces eviction
		LatencyMax:     2 * time.Millisecond,
		PartitionProb:  0.3,
		PartitionAfter: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Broadcast an action for every emitted frame, decoupled from the
	// onFrame callback so a slow (stalled/partitioned) control conn
	// never blocks frame assembly.
	var bcastWG sync.WaitGroup
	bcastWG.Add(1)
	go func() {
		defer bcastWG.Done()
		for tick := range frameCh {
			d.BroadcastAction(tick, 0, []float64{float64(tick), 1})
		}
	}()

	var actionsSeen int64
	var agents []*NodeAgent
	var sendWG sync.WaitGroup
	var skipped int64
	for n := 0; n < nodes; n++ {
		a, err := DialOpts(p.Addr(), n, numPIs, "monitor+control", Opts{
			BackoffMin:        5 * time.Millisecond,
			BackoffMax:        50 * time.Millisecond,
			DialTimeout:       2 * time.Second,
			WriteTimeout:      2 * time.Second,
			HeartbeatInterval: 40 * time.Millisecond,
			Seed:              int64(n) + 1,
		})
		if err != nil {
			t.Fatalf("node %d dial: %v", n, err)
		}
		agents = append(agents, a)
		go func(a *NodeAgent) {
			for range a.Actions() {
				atomic.AddInt64(&actionsSeen, 1)
			}
		}(a)
		sendWG.Add(1)
		go func(a *NodeAgent, node int) {
			defer sendWG.Done()
			vals := make([]float64, numPIs)
			for tick := int64(1); tick <= totalTicks; tick++ {
				for j := range vals {
					vals[j] = float64(tick)*10000 + float64(node)*100 + float64(j)
				}
				if err := a.SendIndicators(tick, vals); err != nil {
					// Reconnecting (or mid-failover): the tick is lost at
					// the source — the daemon gap-fills around it.
					atomic.AddInt64(&skipped, 1)
				}
				time.Sleep(3 * time.Millisecond)
			}
		}(a, n)
	}

	sendWG.Wait()
	// Quiesce: let the sweeper resolve every pending tick and the sink
	// receive every resolved frame (a tick leaves the pending set before
	// its frame is delivered), then drain the broadcast pipe so no action
	// write is mid-flight when we snapshot the counters.
	waitFor(t, func() bool {
		st := d.TransportStats()
		frameMu.Lock()
		delivered := frames
		frameMu.Unlock()
		return st.PendingTicks == 0 && delivered == st.CompleteFrames+st.PartialFrames
	}, "pending ticks drain and their frames reach the sink")
	frameMu.Lock() // the last sink call may still be in its send
	close(frameCh)
	frameMu.Unlock()
	bcastWG.Wait()

	st := d.TransportStats()
	frameMu.Lock()
	if frameErr != "" {
		frameMu.Unlock()
		t.Fatal(frameErr)
	}
	emitted := frames
	frameMu.Unlock()

	// Exact accounting: nothing unexplained on either the tick or the
	// action path.
	if st.TicksStarted != st.CompleteFrames+st.PartialFrames+st.DroppedTicks+int64(st.PendingTicks) {
		t.Fatalf("tick accounting broken: %+v", st)
	}
	if st.ActionsAttempted != st.ActionsSent+st.DroppedActions {
		t.Fatalf("action accounting broken: %+v", st)
	}
	if emitted != st.CompleteFrames+st.PartialFrames {
		t.Fatalf("emitted %d frames but stats say %d complete + %d partial", emitted, st.CompleteFrames, st.PartialFrames)
	}

	// The chaos actually happened — an unloaded run sees a kill every
	// 7 ticks; a third of that is the floor — and the loop survived it.
	minFaults := totalTicks / 20
	pst := p.Stats()
	if pst.Kills < minFaults {
		t.Fatalf("faultnet injected %d kills, want ≥ %d: %+v", pst.Kills, minFaults, pst)
	}
	if st.Reconnects < minFaults {
		t.Fatalf("%d reconnects observed, want ≥ %d: daemon %+v proxy %+v", st.Reconnects, minFaults, st, pst)
	}
	var agentReconnects int64
	for _, a := range agents {
		agentReconnects += a.Reconnects()
		a.Close()
	}
	if agentReconnects < minFaults {
		t.Fatalf("agents reconnected %d times, want ≥ %d", agentReconnects, minFaults)
	}
	if emitted < totalTicks/4 {
		t.Fatalf("control loop starved: %d frames emitted over %d ticks (stats %+v, proxy %+v, %d sends skipped)",
			emitted, totalTicks, st, pst, atomic.LoadInt64(&skipped))
	}

	t.Logf("chaos soak: %d/%d frames (%d complete, %d partial, %d gap-filled slots, %d dropped ticks), "+
		"%d reconnects, %d evictions, %d stale drops, %d late drops, actions %d sent / %d dropped / %d seen by agents, "+
		"proxy: %d kills, %d stalls, %d partitions, %d sends skipped",
		emitted, totalTicks, st.CompleteFrames, st.PartialFrames, st.GapFilledSlots, st.DroppedTicks,
		st.Reconnects, st.Evictions, st.StaleIndicators, st.LateIndicators,
		st.ActionsSent, st.DroppedActions, atomic.LoadInt64(&actionsSeen),
		pst.Kills, pst.Stalls, pst.Partitions, atomic.LoadInt64(&skipped))
}
