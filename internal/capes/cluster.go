package capes

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"capes/internal/nn"
	"capes/internal/replay"
	"capes/internal/rl"
	"capes/internal/wire"
)

// Cluster mode: data-parallel co-training of one CAPES session by N
// processes. Every worker runs a full engine — its own collector, replay
// ring and action path — but the optimizer runs only on the leader:
//
//	follower tick:  minibatch → ComputeGradients → GradFrame ↑ → await bcast
//	leader tick:    minibatch → ComputeGradients → collect frames →
//	                rank-ordered float64 reduce → ApplyGradients → ParamBcast ↓
//
// Determinism contract: the leader folds its own gradient first (rank 0)
// and then each follower frame in ascending rank order into a float64
// accumulator (see internal/nn/gradsync.go for why the mean is then
// independent of grouping), so a fixed worker set and fixed seeds give a
// bit-reproducible trajectory. Followers apply the broadcast parameters
// verbatim and replicate the target-network rule locally — the same
// float expressions as the leader's fused sweep — so every worker holds
// bit-identical θ and θ⁻ after every step.
//
// Fault tolerance rides the PR 6 epoch machinery: each follower
// connection carries a session epoch that bumps on reconnect, the leader
// keys frame validity on the epoch of the connection that delivered it,
// and a rejoining follower is re-synced with a full parameter + target
// welcome broadcast before it may contribute again — a dropped follower
// can never splice a stale gradient into a post-rejoin step.

// Cluster roles.
const (
	ClusterLeader   = "leader"
	ClusterFollower = "follower"
)

// trainerRole is the wire.Hello role cluster followers register with —
// distinct from the monitor/control agent roles of the ingest plane.
const trainerRole = "trainer"

const (
	// clusterHandshakeTimeout bounds the leader-side hello read and
	// welcome-sync write, and the follower-side hello write.
	clusterHandshakeTimeout = 5 * time.Second
	// clusterWriteTimeout bounds steady-state frame/broadcast writes.
	clusterWriteTimeout = 5 * time.Second
	// maxCollectMisses evicts a follower after this many consecutive
	// collect rounds without a frame from it (liveness).
	maxCollectMisses = 3
	// redialBackoffTicks is how many virtual ticks a follower waits
	// after a failed dial before trying the leader again, so an absent
	// leader costs one dial timeout per backoff window, not per tick.
	redialBackoffTicks = 64
)

// ClusterConfig wires an engine into a cluster session.
type ClusterConfig struct {
	// Role is ClusterLeader or ClusterFollower; empty disables cluster
	// mode.
	Role string
	// Listen is the leader's TCP listen address (e.g. ":7710"; use
	// ":0" to bind an ephemeral port and read it back via ClusterAddr).
	Listen string
	// LeaderAddr is the leader address a follower dials.
	LeaderAddr string
	// Rank is the follower's fixed cluster rank, ≥ 1 and unique per
	// follower (the leader's local gradient is rank 0). Rank order is
	// the reduction order, so it is part of the determinism contract.
	Rank int
	// CollectTimeout bounds how long the leader's train tick waits for
	// registered followers' gradient frames (0 = 2s).
	CollectTimeout time.Duration
	// SyncTimeout bounds a follower's dial, welcome-sync read and
	// broadcast wait (0 = 5s).
	SyncTimeout time.Duration
}

// Validate checks the role-specific required fields.
func (c *ClusterConfig) Validate() error {
	switch c.Role {
	case ClusterLeader:
		if c.Listen == "" {
			return fmt.Errorf("capes: cluster leader requires a Listen address")
		}
	case ClusterFollower:
		if c.LeaderAddr == "" {
			return fmt.Errorf("capes: cluster follower requires a LeaderAddr")
		}
		if c.Rank < 1 {
			return fmt.Errorf("capes: cluster follower rank must be ≥ 1, got %d", c.Rank)
		}
	default:
		return fmt.Errorf("capes: unknown cluster role %q", c.Role)
	}
	return nil
}

// withDefaults fills the timeout defaults.
func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.CollectTimeout <= 0 {
		c.CollectTimeout = 2 * time.Second
	}
	if c.SyncTimeout <= 0 {
		c.SyncTimeout = 5 * time.Second
	}
	return c
}

// ClusterStats is the cluster-mode health block in Stats (one struct for
// both roles; fields note which side increments them).
type ClusterStats struct {
	Role      string
	Rank      int    // follower rank (0 on the leader)
	Epoch     uint64 // follower connection epoch
	Synced    bool   // follower: connected and parameter-synced
	Followers int    // leader: currently registered followers

	Syncs           int64 // welcome syncs served (leader) / absorbed (follower)
	Broadcasts      int64 // param broadcasts sent (leader) / applied (follower)
	FramesAccepted  int64 // gradient frames folded into a step (leader)
	FramesPass      int64 // pass frames from cold followers (leader)
	FramesStale     int64 // frames dropped for wrong step/epoch (leader)
	CollectTimeouts int64 // collect rounds that hit the timeout (leader)
	Evictions       int64 // followers dropped: conn error, misses, restore (leader)
	AggrSteps       int64 // steps that folded ≥ 1 follower gradient (leader)
	SoloSteps       int64 // steps applied from the local gradient alone (leader)
	FramesSent      int64 // gradient frames pushed (follower)
	Reconnects      int64 // successful dials (follower)
	SyncFailures    int64 // dial/handshake/sync failures (follower)
	BcastMisses     int64 // broadcast waits that failed or timed out (follower)
}

// ---------------------------------------------------------------------
// Leader transport
// ---------------------------------------------------------------------

// clusterLeader accepts follower connections, serves welcome syncs from
// a published parameter snapshot (so the accept path never touches the
// engine lock), collects per-step gradient frames and fans broadcasts
// back out. The engine's train tick calls collect/broadcast with e.mu
// held; reader and accept goroutines only take l.mu.
type clusterLeader struct {
	cfg ClusterConfig
	ln  net.Listener

	mu     sync.Mutex
	notify chan struct{} // cap 1: frame arrivals and peer changes
	peers  map[int]*leaderPeer
	frames map[int]*wire.GradFrame
	closed bool

	// Published snapshot of the post-step parameters, refreshed on
	// every broadcast (and on checkpoint restore): what a joining
	// follower is synced from.
	snapStep   int64
	snapLoss   float64
	snapParams []float32
	snapTarget []float32

	stats ClusterStats
	wg    sync.WaitGroup
}

// leaderPeer is one registered follower connection.
type leaderPeer struct {
	rank   int
	epoch  uint64
	conn   net.Conn
	wmu    sync.Mutex   // serializes writes (broadcast vs. future uses)
	wr     *wire.Writer // under wmu
	misses int          // consecutive collect rounds without a frame
}

// newClusterLeader binds the listen socket, publishes the initial
// parameter snapshot and starts the accept loop.
func newClusterLeader(cfg ClusterConfig, params, target []EnginePrecision, step int64) (*clusterLeader, error) {
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("capes: cluster listen: %w", err)
	}
	l := &clusterLeader{
		cfg:    cfg,
		ln:     ln,
		notify: make(chan struct{}, 1),
		peers:  make(map[int]*leaderPeer),
		frames: make(map[int]*wire.GradFrame),
	}
	l.stats.Role = ClusterLeader
	l.snapStep = step
	l.snapParams = nn.ExportFlat(nil, params)
	l.snapTarget = nn.ExportFlat(nil, target)
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// addr returns the bound listen address (useful with Listen ":0").
func (l *clusterLeader) addr() string { return l.ln.Addr().String() }

func (l *clusterLeader) wakeup() {
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

func (l *clusterLeader) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.wg.Add(1)
		go l.handshake(conn)
	}
}

// handshake validates a follower hello, registers the peer and serves
// the welcome sync. A rank that is already registered is superseded
// only by a strictly higher epoch — the rejoin path; an equal-or-lower
// epoch is a duplicate rank or a replayed connection and is refused.
func (l *clusterLeader) handshake(conn net.Conn) {
	defer l.wg.Done()
	_ = conn.SetDeadline(time.Now().Add(clusterHandshakeTimeout))
	rd := wire.NewReader(conn)
	env, err := rd.Read()
	if err != nil || env.Type != wire.MsgHello {
		conn.Close()
		return
	}
	h := *env.Hello // rd reuses env on the next Read
	if h.Proto != wire.ProtoVersion || h.Role != trainerRole || h.NodeID < 1 {
		conn.Close()
		return
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		conn.Close()
		return
	}
	if old := l.peers[h.NodeID]; old != nil {
		if h.Epoch <= old.epoch {
			l.mu.Unlock()
			conn.Close()
			return
		}
		old.conn.Close()
		delete(l.frames, h.NodeID)
		l.stats.Evictions++
	}
	// Encode the welcome under l.mu: the snapshot buffers are reused
	// across broadcasts, so the bytes must be captured before the next
	// broadcast overwrites them. (A one-off buffer, garbage after the
	// write: joins are rare and nothing this size should stay live.)
	buf, encErr := wire.Encode(&wire.Envelope{Type: wire.MsgParamBcast, ParamBcast: &wire.ParamBcast{
		Step:   l.snapStep,
		Sync:   true,
		Loss:   l.snapLoss,
		Params: l.snapParams,
		Target: l.snapTarget,
	}})
	if encErr != nil {
		delete(l.peers, h.NodeID)
		l.mu.Unlock()
		conn.Close()
		return
	}
	// Register before the welcome goes out, holding the peer's write lock
	// until it has. A follower that has read its welcome is then already a
	// peer collect waits for — ClusterSync's contract; were it registered
	// after the write, the leader could run steps ahead of a follower that
	// believes itself joined, and each would sit out the other's timeout —
	// and a broadcast to it queues behind the welcome.
	p := &leaderPeer{rank: h.NodeID, epoch: h.Epoch, conn: conn, wr: wire.NewWriter(conn)}
	p.wmu.Lock()
	l.peers[h.NodeID] = p
	l.stats.Syncs++
	l.mu.Unlock()
	_, err = conn.Write(buf)
	_ = conn.SetDeadline(time.Time{})
	p.wmu.Unlock()
	if err != nil {
		l.dropPeer(p)
		return
	}
	l.wakeup()
	l.wg.Add(1)
	go l.readFrames(p, rd)
}

// readFrames drains one follower connection, parking valid gradient
// frames for collect. Frame validity is keyed on the delivering
// connection's epoch, so frames written before a drop can never count
// toward a post-rejoin step.
func (l *clusterLeader) readFrames(p *leaderPeer, rd *wire.Reader) {
	defer l.wg.Done()
	for {
		env, err := rd.Read()
		if err != nil {
			l.dropPeer(p)
			return
		}
		switch env.Type {
		case wire.MsgGradFrame:
			fr := env.GradFrame // freshly allocated by the Reader: safe to park
			l.mu.Lock()
			if l.peers[p.rank] != p || fr.Epoch != p.epoch || fr.Rank != p.rank {
				l.stats.FramesStale++
				l.mu.Unlock()
				continue
			}
			l.frames[p.rank] = fr
			p.misses = 0
			l.mu.Unlock()
			l.wakeup()
		default:
			// Heartbeats and unknown messages keep the conn alive.
		}
	}
}

// dropPeer removes a dead follower (idempotent per connection).
func (l *clusterLeader) dropPeer(p *leaderPeer) {
	l.mu.Lock()
	if l.peers[p.rank] == p {
		delete(l.peers, p.rank)
		delete(l.frames, p.rank)
		l.stats.Evictions++
	}
	l.mu.Unlock()
	p.conn.Close()
	l.wakeup()
}

// collect blocks until every registered follower has parked a frame for
// step, or the collect timeout fires. On timeout, absent followers
// accrue a miss (eviction after maxCollectMisses) and the round proceeds
// with whatever arrived. Frames for any other step are dropped as stale.
// The result is sorted by rank — the deterministic reduction order.
func (l *clusterLeader) collect(step int64) []*wire.GradFrame {
	timer := time.NewTimer(l.cfg.CollectTimeout)
	defer timer.Stop()
	timedOut := false
	l.mu.Lock()
	for {
		for rank, fr := range l.frames {
			if fr.Step != step {
				delete(l.frames, rank)
				l.stats.FramesStale++
			}
		}
		complete := true
		for rank := range l.peers {
			if _, ok := l.frames[rank]; !ok {
				complete = false
				break
			}
		}
		if complete || timedOut {
			if !complete {
				l.stats.CollectTimeouts++
				for rank, p := range l.peers {
					if _, ok := l.frames[rank]; ok {
						continue
					}
					p.misses++
					if p.misses >= maxCollectMisses {
						delete(l.peers, rank)
						l.stats.Evictions++
						p.conn.Close()
					}
				}
			}
			out := make([]*wire.GradFrame, 0, len(l.frames))
			for rank, fr := range l.frames {
				out = append(out, fr)
				delete(l.frames, rank)
			}
			l.mu.Unlock()
			sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
			return out
		}
		l.mu.Unlock()
		select {
		case <-l.notify:
		case <-timer.C:
			timedOut = true
		}
		l.mu.Lock()
	}
}

// noteStep records the fold accounting for one aggregation round.
func (l *clusterLeader) noteStep(accepted, pass, workers int) {
	l.mu.Lock()
	l.stats.FramesAccepted += int64(accepted)
	l.stats.FramesPass += int64(pass)
	if workers > 0 {
		if accepted > 0 {
			l.stats.AggrSteps++
		} else {
			l.stats.SoloSteps++
		}
	}
	l.mu.Unlock()
}

// broadcast refreshes the published snapshot and fans the post-step
// parameters out to every registered follower. Steady-state broadcasts
// omit the target arena — followers replicate the update rule locally.
// Each peer's Writer streams the frame straight from the snapshot, so no
// frame-sized buffer exists on the leader; that is safe outside l.mu
// because only the engine's tick thread (this caller, and resync) ever
// rewrites the snapshot. Per-peer writes carry their own deadlines so
// one stalled follower cannot wedge the tick longer than
// clusterWriteTimeout.
func (l *clusterLeader) broadcast(step int64, loss float64, params, target []EnginePrecision) {
	l.mu.Lock()
	l.snapStep = step
	l.snapLoss = loss
	l.snapParams = nn.ExportFlat(l.snapParams, params)
	l.snapTarget = nn.ExportFlat(l.snapTarget, target)
	env := wire.Envelope{Type: wire.MsgParamBcast, ParamBcast: &wire.ParamBcast{
		Step:   step,
		Loss:   loss,
		Params: l.snapParams,
	}}
	targets := make([]*leaderPeer, 0, len(l.peers))
	for _, p := range l.peers {
		targets = append(targets, p)
	}
	if len(targets) > 0 {
		l.stats.Broadcasts++
	}
	l.mu.Unlock()
	for _, p := range targets {
		p.wmu.Lock()
		_ = p.conn.SetWriteDeadline(time.Now().Add(clusterWriteTimeout))
		_, werr := p.wr.Write(&env)
		_ = p.conn.SetWriteDeadline(time.Time{})
		p.wmu.Unlock()
		if werr != nil {
			l.dropPeer(p)
		}
	}
}

// resync republishes the snapshot (after a checkpoint restore rewound
// the model) and drops every follower: each rejoins with a bumped epoch
// and is welcome-synced from the restored parameters, so no follower
// can keep training against the pre-restore trajectory.
func (l *clusterLeader) resync(step int64, loss float64, params, target []EnginePrecision) {
	l.mu.Lock()
	l.snapStep = step
	l.snapLoss = loss
	l.snapParams = nn.ExportFlat(l.snapParams, params)
	l.snapTarget = nn.ExportFlat(l.snapTarget, target)
	dropped := make([]*leaderPeer, 0, len(l.peers))
	for _, p := range l.peers {
		dropped = append(dropped, p)
	}
	l.peers = make(map[int]*leaderPeer)
	l.frames = make(map[int]*wire.GradFrame)
	l.stats.Evictions += int64(len(dropped))
	l.mu.Unlock()
	for _, p := range dropped {
		p.conn.Close()
	}
	l.wakeup()
}

// close shuts the listener and every follower connection down and joins
// the transport goroutines.
func (l *clusterLeader) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	peers := make([]*leaderPeer, 0, len(l.peers))
	for _, p := range l.peers {
		peers = append(peers, p)
	}
	l.mu.Unlock()
	l.ln.Close()
	for _, p := range peers {
		p.conn.Close()
	}
	l.wg.Wait()
}

// statsSnapshot copies the counters under l.mu.
func (l *clusterLeader) statsSnapshot() ClusterStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Followers = len(l.peers)
	return s
}

// ---------------------------------------------------------------------
// Follower transport
// ---------------------------------------------------------------------

// errClusterBackoff reports a follower skipping a dial attempt inside
// its redial backoff window.
var errClusterBackoff = errors.New("capes: cluster dial backing off")

// clusterFollower is the follower side: a single synchronous connection
// driven entirely from inside the engine's train tick (no goroutines),
// so every field is protected by the engine lock.
type clusterFollower struct {
	cfg      ClusterConfig
	conn     net.Conn
	rd       *wire.Reader // on conn
	wr       *wire.Writer // on conn
	epoch    uint64
	synced   bool
	nextDial int64 // earliest tick for the next dial attempt
	stats    ClusterStats
}

func newClusterFollower(cfg ClusterConfig) *clusterFollower {
	f := &clusterFollower{cfg: cfg}
	f.stats.Role = ClusterFollower
	f.stats.Rank = cfg.Rank
	return f
}

// drop closes the connection; the next train tick redials and resyncs.
func (f *clusterFollower) drop() {
	if f.conn != nil {
		f.conn.Close()
		f.conn, f.rd, f.wr = nil, nil, nil
	}
	f.synced = false
}

// ensureSynced dials the leader if needed (respecting the tick-based
// redial backoff unless force is set), registers with a bumped epoch and
// absorbs the welcome sync — parameters, target and the leader's global
// step — into the agent.
func (f *clusterFollower) ensureSynced(a *rl.Agent[EnginePrecision], now int64, force bool) error {
	if f.conn != nil && f.synced {
		return nil
	}
	if f.conn == nil {
		if !force && now < f.nextDial {
			return errClusterBackoff
		}
		conn, err := net.DialTimeout("tcp", f.cfg.LeaderAddr, f.cfg.SyncTimeout)
		if err != nil {
			f.nextDial = now + redialBackoffTicks
			f.stats.SyncFailures++
			return err
		}
		f.epoch++
		f.stats.Reconnects++
		f.conn, f.rd, f.wr = conn, wire.NewReader(conn), wire.NewWriter(conn)
		f.synced = false
		_ = conn.SetWriteDeadline(time.Now().Add(clusterHandshakeTimeout))
		_, err = f.wr.Write(&wire.Envelope{Type: wire.MsgHello, Hello: &wire.Hello{
			NodeID: f.cfg.Rank,
			Role:   trainerRole,
			Epoch:  f.epoch,
			Proto:  wire.ProtoVersion,
		}})
		_ = conn.SetWriteDeadline(time.Time{})
		if err != nil {
			f.drop()
			f.nextDial = now + redialBackoffTicks
			f.stats.SyncFailures++
			return err
		}
	}
	_ = f.conn.SetReadDeadline(time.Now().Add(f.cfg.SyncTimeout))
	for {
		env, err := f.rd.Read()
		if err != nil {
			f.drop()
			f.nextDial = now + redialBackoffTicks
			f.stats.SyncFailures++
			return err
		}
		if env.Type != wire.MsgParamBcast || !env.ParamBcast.Sync {
			continue
		}
		b := env.ParamBcast
		if err := a.ApplyParamBroadcast(b.Step, b.Params, b.Target, b.Loss); err != nil {
			f.drop()
			f.stats.SyncFailures++
			return err
		}
		_ = f.conn.SetReadDeadline(time.Time{})
		f.synced = true
		f.stats.Syncs++
		return nil
	}
}

// pushFrame sends one gradient frame to the leader.
func (f *clusterFollower) pushFrame(fr *wire.GradFrame) error {
	_ = f.conn.SetWriteDeadline(time.Now().Add(clusterWriteTimeout))
	_, err := f.wr.Write(&wire.Envelope{Type: wire.MsgGradFrame, GradFrame: fr})
	_ = f.conn.SetWriteDeadline(time.Time{})
	if err != nil {
		f.drop()
		return err
	}
	f.stats.FramesSent++
	return nil
}

// awaitBroadcast blocks for the leader's post-step parameter broadcast
// and applies it. Any failure — timeout, decode error, or a broadcast
// the agent cannot apply without a full sync (ErrTargetStale) — drops
// the connection; the next train tick rejoins through the welcome sync.
func (f *clusterFollower) awaitBroadcast(a *rl.Agent[EnginePrecision]) error {
	_ = f.conn.SetReadDeadline(time.Now().Add(f.cfg.SyncTimeout))
	for {
		env, err := f.rd.Read()
		if err != nil {
			f.stats.BcastMisses++
			f.drop()
			return err
		}
		if env.Type != wire.MsgParamBcast {
			continue
		}
		b := env.ParamBcast
		if err := a.ApplyParamBroadcast(b.Step, b.Params, b.Target, b.Loss); err != nil {
			f.stats.BcastMisses++
			f.drop()
			return err
		}
		_ = f.conn.SetReadDeadline(time.Time{})
		f.stats.Broadcasts++
		return nil
	}
}

// ---------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------

// startClusterLocked builds the role transport during NewEngine.
func (e *Engine) startCluster(cc ClusterConfig) error {
	switch cc.Role {
	case ClusterLeader:
		l, err := newClusterLeader(cc, e.agent.Online.FlatParams(), e.agent.Target.FlatParams(), e.agent.Steps())
		if err != nil {
			return err
		}
		e.cluL = l
	case ClusterFollower:
		e.cluF = newClusterFollower(cc)
	}
	return nil
}

// ClusterAddr returns the leader's bound listen address ("" on
// followers and non-cluster engines) — useful with Listen ":0".
func (e *Engine) ClusterAddr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cluL != nil {
		return e.cluL.addr()
	}
	return ""
}

// ClusterSync forces a follower to dial, register and parameter-sync
// with the leader right now, bypassing the redial backoff. Session
// managers call it at boot so the follower is registered before the
// leader's first train tick; it is a no-op on leaders and non-cluster
// engines.
func (e *Engine) ClusterSync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cluF == nil {
		return nil
	}
	return e.cluF.ensureSynced(e.agent, 0, true)
}

// closeClusterLocked tears the cluster transport down (engine Stop and
// teardown paths; e.mu held).
func (e *Engine) closeClusterLocked() {
	if e.cluL != nil {
		e.cluL.close()
	}
	if e.cluF != nil {
		e.cluF.drop()
	}
}

// resyncClusterLocked realigns the cluster after a checkpoint restore
// rewound the agent (e.mu held): the leader republishes its snapshot
// and evicts every follower (each rejoins against the restored
// parameters with a bumped epoch); a follower drops its connection and
// resyncs from the leader on its next train tick.
func (e *Engine) resyncClusterLocked() {
	if e.cluL != nil {
		e.cluL.resync(e.agent.Steps(), e.agent.SmoothedLoss(), e.agent.Online.FlatParams(), e.agent.Target.FlatParams())
	}
	if e.cluF != nil {
		e.cluF.drop()
	}
}

// clusterLeaderTick is the leader's train tick: compute the local
// gradient (rank 0), collect follower frames for this step, reduce in
// rank order, apply, broadcast. The engine lock is held throughout —
// collect can block up to CollectTimeout, which is the price of a
// strictly synchronous (and therefore deterministic) update schedule.
func (e *Engine) clusterLeaderTick(now int64) {
	h := &e.cfg.Hyper
	step := e.agent.Steps() + 1
	localN := 0
	localLoss := 0.0
	if err := replay.ConstructMinibatchInto(e.db, e.rng, h.MinibatchSize, e.rewardFn, &e.batch); err == nil {
		if e.faults != nil && e.faults.takePoison(step) {
			e.poisonParamsLocked()
		}
		if loss, err := e.agent.ComputeGradients(&e.batch); err != nil {
			e.trainErrors++
			e.noteTrainFaultLocked(err, now)
		} else {
			localN = e.batch.N
			localLoss = loss
		}
	}
	frames := e.cluL.collect(step)

	if e.cluAcc == nil {
		e.cluAcc = make([]float64, len(e.agent.Online.FlatGrads()))
	}
	for i := range e.cluAcc {
		e.cluAcc[i] = 0
	}
	workers := 0
	lossSum := 0.0
	if localN > 0 {
		nn.AccumulateFlat(e.cluAcc, e.agent.Online.FlatGrads())
		workers++
		lossSum += localLoss
	}
	accepted, pass := 0, 0
	for _, fr := range frames {
		if fr.BatchN == 0 || len(fr.Grads) == 0 {
			pass++
			continue
		}
		if len(fr.Grads) != len(e.cluAcc) {
			e.trainErrors++
			continue
		}
		nn.AccumulateFlat(e.cluAcc, fr.Grads)
		workers++
		accepted++
		lossSum += fr.Loss
	}

	meanLoss := 0.0
	if workers > 0 {
		nn.MeanInto(e.agent.Online.FlatGrads(), e.cluAcc, workers)
		meanLoss = lossSum / float64(workers)
		if err := e.agent.ApplyGradients(meanLoss); err != nil {
			e.trainErrors++
			e.noteTrainFaultLocked(err, now)
		} else if e.agent.Steps()%25 == 0 {
			e.lossTrace = append(e.lossTrace, LossPoint{Tick: now, Loss: e.agent.SmoothedLoss()})
		}
	}
	e.cluL.noteStep(accepted, pass, workers)
	// Broadcast even when no step was applied: followers block on the
	// round's broadcast, and an idle round's parameters are unchanged
	// bits (ApplyParamBroadcast treats same-step broadcasts as no-ops).
	e.cluL.broadcast(e.agent.Steps(), meanLoss, e.agent.Online.FlatParams(), e.agent.Target.FlatParams())
}

// clusterFollowerTick is the follower's train tick: compute the local
// gradient, sync with the leader if needed, push the frame (a pass
// frame when the replay ring cannot form a minibatch yet) and block for
// the broadcast that carries the post-step parameters back.
//
// The minibatch is drawn before — and regardless of — the connection
// state: the rng stream stays tick-aligned with the leader's, so a
// follower that rejoins after a drop contributes exactly the gradients
// an always-connected one would, and the N-worker trajectory stays on
// the single-process golden path. When the sync below replaced the
// parameters (first join or rejoin), the gradient is recomputed on the
// same batch against the just-synced parameters — a frame computed
// against pre-sync weights must never enter the reduction.
func (e *Engine) clusterFollowerTick(now int64) {
	f := e.cluF
	h := &e.cfg.Hyper
	batchN := 0
	loss := 0.0
	haveGrads := false
	if err := replay.ConstructMinibatchInto(e.db, e.rng, h.MinibatchSize, e.rewardFn, &e.batch); err == nil {
		if e.faults != nil && e.faults.takePoison(e.agent.Steps()+1) {
			e.poisonParamsLocked()
		}
		if l, err := e.agent.ComputeGradients(&e.batch); err != nil {
			e.trainErrors++
			e.noteTrainFaultLocked(err, now)
		} else {
			batchN = e.batch.N
			loss = l
			haveGrads = true
		}
	}
	wasSynced := f.conn != nil && f.synced
	if err := f.ensureSynced(e.agent, now, false); err != nil {
		return
	}
	if !wasSynced && haveGrads {
		if l, err := e.agent.ComputeGradients(&e.batch); err != nil {
			e.trainErrors++
			e.noteTrainFaultLocked(err, now)
			haveGrads = false
		} else {
			loss = l
		}
	}
	fr := &wire.GradFrame{Rank: f.cfg.Rank, Epoch: f.epoch, Step: e.agent.Steps() + 1}
	if haveGrads {
		fr.BatchN = batchN
		fr.Loss = loss
		e.cluWire = nn.ExportFlat(e.cluWire, e.agent.Online.FlatGrads())
		fr.Grads = e.cluWire
	}
	if err := f.pushFrame(fr); err != nil {
		return
	}
	if err := f.awaitBroadcast(e.agent); err != nil {
		return
	}
	if s := e.agent.Steps(); s > 0 && s%25 == 0 {
		e.lossTrace = append(e.lossTrace, LossPoint{Tick: now, Loss: e.agent.SmoothedLoss()})
	}
}
