package capes

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"capes/internal/nn"
	"capes/internal/replay"
	"capes/internal/rl"
	"capes/internal/wire"
)

// Cluster mode: data-parallel co-training of one CAPES session by N
// processes. Every worker runs a full engine — its own collector, replay
// ring, action path and optimizer — and a train step is one gradient
// exchange through the leader:
//
//	follower tick:  minibatch → ComputeGradients → GradFrame ↑ (its gradient arena, as it lies)
//	                → mean GradFrame ↓ (read into the same arena) → ApplyGradients
//	leader tick:    minibatch → ComputeGradients → collect the step's frames →
//	                rank-ordered float64 reduce into its own gradient arena →
//	                mean GradFrame ↓ to every follower → ApplyGradients
//
// Leader and followers step concurrently, through the same
// rl.Agent.ApplyGradients → nn.Adam.FusedStep, on the same bits: the
// update rule exists once. Parameters cross the wire only in the full
// sync (wire.ParamBcast: θ, θ⁻, Adam's moments and step count, the global
// step, the loss EWMA) a follower gets when it joins or rejoins.
//
// Determinism contract: the leader folds its own gradient first (rank 0)
// and then each follower frame in ascending rank order, in float64 (see
// internal/nn/gradsync.go for why the mean is then independent of
// grouping), so a fixed worker set and fixed seeds give a
// bit-reproducible trajectory, and every worker holds bit-identical θ,
// θ⁻ and optimizer state after every step.
//
// Fault tolerance rides the PR 6 epoch machinery: each follower
// connection carries a session epoch that bumps on reconnect, either side
// keys frame validity on the epoch of the connection that delivered it,
// a follower that reads a mean for any step but its next has missed one
// and drops the connection, and a rejoining follower is re-synced with a
// full sync before it may contribute again — a dropped follower can
// never splice a stale gradient into a post-rejoin step, nor step from a
// state the leader did not have.

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
	Synced    bool   // follower: connected and holding a full sync
	Followers int    // leader: currently registered followers

	Syncs           int64 // full syncs served (leader) / absorbed (follower)
	Broadcasts      int64 // rounds whose mean gradient went to ≥ 1 follower (leader) / mean gradients read (follower)
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
	BcastMisses     int64 // waits for the mean gradient that failed, timed out or read a frame for another step (follower)
}

// ---------------------------------------------------------------------
// Leader transport
// ---------------------------------------------------------------------

// clusterLeader accepts follower connections, serves full syncs from the
// agent's live arenas, collects per-step gradient frames and fans the
// mean gradient back out. The engine's train tick calls collect,
// release and sendMean with e.mu held; accept, handshake and reader
// goroutines take stateMu and mu but never e.mu, so Engine.Stop can join
// them under the engine lock.
type clusterLeader struct {
	cfg     ClusterConfig
	ln      net.Listener
	nParams int

	// stateMu orders a join against the round, so that a follower's full
	// sync and the first mean gradient it is sent fit together: the tick
	// thread holds it from picking a round's recipients until the step
	// is applied (and around anything else that rewrites the arenas), a
	// handshake while it captures the arenas and registers the peer.
	// Taken before mu.
	stateMu sync.Mutex
	agent   *rl.Agent[EnginePrecision] // what a full sync is served from

	mu     sync.Mutex
	notify chan struct{} // cap 1: frame arrivals and peer changes
	peers  []*leaderPeer // ascending rank: the reduction order
	free   [][]float32   // gradient arenas no frame is using
	closed bool
	stats  ClusterStats

	// Tick-thread scratch, reused every round.
	timer  *time.Timer      // collect's timeout; stopped between rounds
	round  []wire.GradFrame // collect's result
	srcs   [][]float32      // the reduction's sources, rank order
	sendTo []*leaderPeer    // sendMean's recipients

	wg sync.WaitGroup
}

// leaderPeer is one registered follower connection.
type leaderPeer struct {
	rank  int
	epoch uint64
	conn  net.Conn

	wmu sync.Mutex     // serializes writes: the welcome, then mean gradients
	wr  *wire.Writer   // under wmu
	out wire.GradFrame // under wmu: the mean gradient as addressed to this peer
	env wire.Envelope  // under wmu

	// Under clusterLeader.mu:
	misses int            // consecutive collect rounds without a frame
	parked bool           // frame holds a frame collect has not taken yet
	frame  wire.GradFrame // Grads is an arena from the leader's free list
}

// newClusterLeader binds the listen socket and starts the accept loop.
func newClusterLeader(cfg ClusterConfig, agent *rl.Agent[EnginePrecision]) (*clusterLeader, error) {
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("capes: cluster listen: %w", err)
	}
	l := &clusterLeader{
		cfg:     cfg,
		ln:      ln,
		nParams: len(agent.Online.FlatParams()),
		agent:   agent,
		notify:  make(chan struct{}, 1),
		timer:   time.NewTimer(time.Hour),
	}
	l.timer.Stop()
	l.stats.Role = ClusterLeader
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

// peerLocked returns the registered peer of a rank and its position in
// l.peers (where it would be inserted, if nil). l.mu held.
func (l *clusterLeader) peerLocked(rank int) (*leaderPeer, int) {
	i, ok := slices.BinarySearchFunc(l.peers, rank, func(p *leaderPeer, rank int) int { return p.rank - rank })
	if !ok {
		return nil, i
	}
	return l.peers[i], i
}

// recycleLocked puts an arena no frame is using any more back on the
// free list (nil — a pass frame's — is nothing to put back). l.mu held.
func (l *clusterLeader) recycleLocked(arena []float32) {
	if arena != nil {
		l.free = append(l.free, arena)
	}
}

// unparkLocked discards a peer's parked frame, if any. l.mu held.
func (l *clusterLeader) unparkLocked(p *leaderPeer) {
	if p.parked {
		l.recycleLocked(p.frame.Grads)
		p.parked, p.frame = false, wire.GradFrame{}
	}
}

// takeArena hands a reader the arena its next frame decodes into: one
// off the free list, or — until every peer has had one — a new one.
// Arenas change hands reader → parked frame → collect → tick → free
// list and are never shared.
func (l *clusterLeader) takeArena() []float32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		a := l.free[n-1]
		l.free = l.free[:n-1]
		return a
	}
	return make([]float32, l.nParams)
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
// the full sync. A rank that is already registered is superseded only by
// a strictly higher epoch — the rejoin path; an equal-or-lower epoch is a
// duplicate rank or a replayed connection and is refused.
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
	// Under stateMu the arenas are at a step boundary and no round is
	// between picking its recipients and stepping: the state captured
	// here and the first mean gradient this peer is sent belong together.
	l.stateMu.Lock()
	l.mu.Lock()
	refuse := func() {
		l.mu.Unlock()
		l.stateMu.Unlock()
		conn.Close()
	}
	old, at := l.peerLocked(h.NodeID)
	if l.closed || (old != nil && h.Epoch <= old.epoch) {
		refuse()
		return
	}
	// The sync is a one-off buffer, garbage after the write: joins are
	// rare and nothing this size should stay live.
	a := l.agent
	m, v := a.Opt.FlatMoments()
	buf, encErr := wire.Encode(&wire.Envelope{Type: wire.MsgParamBcast, ParamBcast: &wire.ParamBcast{
		Step:     a.Steps(),
		Sync:     true,
		Loss:     a.SmoothedLoss(),
		AdamStep: int64(a.Opt.StepCount()),
		Params:   a.Online.FlatParams(),
		Target:   a.Target.FlatParams(),
		M:        m,
		V:        v,
	}})
	if encErr != nil { // a model whose four arenas exceed wire.MaxFrameBytes
		refuse()
		return
	}
	// Register before the welcome goes out, holding the peer's write lock
	// until it has. A follower that has read its welcome is then already a
	// peer collect waits for — ClusterSync's contract; were it registered
	// after the write, the leader could run steps ahead of a follower that
	// believes itself joined, and each would sit out the other's timeout —
	// and a mean gradient for it queues behind the welcome.
	p := &leaderPeer{rank: h.NodeID, epoch: h.Epoch, conn: conn, wr: wire.NewWriter(conn)}
	p.wmu.Lock()
	if old != nil {
		old.conn.Close()
		l.unparkLocked(old)
		l.peers[at] = p
		l.stats.Evictions++
	} else {
		l.peers = slices.Insert(l.peers, at, p)
	}
	l.stats.Syncs++
	l.mu.Unlock()
	l.stateMu.Unlock()
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
// frames for collect. Each frame's arena is decoded into one the leader
// recycles, taken only once the frame's header has arrived — by when the
// tick has long given the previous one back, so a peer keeps one arena
// in flight. Frame validity is keyed on the delivering connection's
// epoch, so frames written before a drop can never count toward a
// post-rejoin step.
func (l *clusterLeader) readFrames(p *leaderPeer, rd *wire.Reader) {
	defer l.wg.Done()
	var lent []float32
	rd.LendGrads(func(n int) []float32 {
		if n != l.nParams {
			return nil // refused: the connection drops
		}
		lent = l.takeArena()
		return lent
	})
	for {
		lent = nil
		env, err := rd.Read()
		if err != nil {
			l.mu.Lock()
			l.recycleLocked(lent)
			l.mu.Unlock()
			l.dropPeer(p)
			return
		}
		if env.Type != wire.MsgGradFrame {
			continue // heartbeats and unknown messages keep the conn alive
		}
		fr := env.GradFrame // the Reader's: copied out below
		l.mu.Lock()
		if cur, _ := l.peerLocked(p.rank); cur != p || fr.Epoch != p.epoch || fr.Rank != p.rank {
			l.stats.FramesStale++
			l.recycleLocked(lent)
			l.mu.Unlock()
			continue
		}
		l.unparkLocked(p) // a frame nobody collected is superseded
		p.frame, p.parked = *fr, true
		p.misses = 0
		l.mu.Unlock()
		l.wakeup()
	}
}

// dropPeer removes a dead follower (idempotent per connection).
func (l *clusterLeader) dropPeer(p *leaderPeer) {
	l.mu.Lock()
	if cur, at := l.peerLocked(p.rank); cur == p {
		l.peers = slices.Delete(l.peers, at, at+1)
		l.unparkLocked(p)
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
// The result is in rank order — the deterministic reduction order — and,
// like the arenas in it, the caller's until release. Nothing is
// allocated: the timer, armed only if the round has to wait, and the
// result slice are the leader's.
func (l *clusterLeader) collect(step int64) []wire.GradFrame {
	armed, timedOut := false, false
	l.mu.Lock()
	for {
		complete := true
		for _, p := range l.peers {
			if p.parked && p.frame.Step != step {
				l.unparkLocked(p)
				l.stats.FramesStale++
			}
			complete = complete && p.parked
		}
		if complete || timedOut {
			if !complete {
				l.stats.CollectTimeouts++
				l.peers = slices.DeleteFunc(l.peers, func(p *leaderPeer) bool {
					if p.parked {
						return false
					}
					if p.misses++; p.misses < maxCollectMisses {
						return false
					}
					l.stats.Evictions++
					p.conn.Close()
					return true
				})
			}
			l.round = l.round[:0]
			for _, p := range l.peers {
				if p.parked {
					l.round = append(l.round, p.frame)
					p.parked, p.frame = false, wire.GradFrame{}
				}
			}
			l.mu.Unlock()
			if armed {
				l.timer.Stop() // go.mod ≥ 1.23: nothing stale is left in the channel
			}
			return l.round
		}
		l.mu.Unlock()
		if !armed {
			l.timer.Reset(l.cfg.CollectTimeout)
			armed = true
		}
		select {
		case <-l.notify:
		case <-l.timer.C:
			timedOut = true
		}
		l.mu.Lock()
	}
}

// release gives the arenas of a collected round back to the free list and
// records the round's fold accounting.
func (l *clusterLeader) release(frames []wire.GradFrame, accepted, pass, workers int) {
	l.mu.Lock()
	for i := range frames {
		l.recycleLocked(frames[i].Grads)
		frames[i].Grads = nil
	}
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

// sendMean fans the round's mean gradient (nil in a round no worker had
// one for: a pass frame, so followers do not wait in vain) out to every
// registered follower, each addressed with its own connection's epoch.
// The caller holds stateMu and steps only after this returns; the frame
// goes out as the gradient arena's own bytes, so no frame-sized buffer
// exists on the leader. Per-peer writes carry their own deadlines so one
// stalled follower cannot wedge the tick longer than clusterWriteTimeout.
func (l *clusterLeader) sendMean(step int64, workers int, loss float64, mean []float32) {
	l.mu.Lock()
	l.sendTo = append(l.sendTo[:0], l.peers...)
	if len(l.sendTo) > 0 {
		l.stats.Broadcasts++
	}
	l.mu.Unlock()
	for i, p := range l.sendTo {
		l.sendTo[i] = nil
		p.wmu.Lock()
		p.out = wire.GradFrame{Epoch: p.epoch, Step: step, BatchN: workers, Loss: loss, Grads: mean}
		p.env = wire.Envelope{Type: wire.MsgGradFrame, GradFrame: &p.out}
		_ = p.conn.SetWriteDeadline(time.Now().Add(clusterWriteTimeout))
		_, werr := p.wr.Write(&p.env)
		_ = p.conn.SetWriteDeadline(time.Time{})
		p.out.Grads = nil
		p.wmu.Unlock()
		if werr != nil {
			l.dropPeer(p)
		}
	}
}

// resync points full syncs at the agent a checkpoint restore installed
// and drops every follower: each rejoins with a bumped epoch and is
// synced from the restored state, so no follower can keep training
// against the pre-restore trajectory.
func (l *clusterLeader) resync(agent *rl.Agent[EnginePrecision]) {
	l.stateMu.Lock()
	l.agent = agent
	l.mu.Lock()
	dropped := l.peers
	l.peers = nil
	for _, p := range dropped {
		l.unparkLocked(p)
	}
	l.stats.Evictions += int64(len(dropped))
	l.mu.Unlock()
	l.stateMu.Unlock()
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
	peers := slices.Clone(l.peers)
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

	out  wire.GradFrame // the frame being pushed
	env  wire.Envelope  // its envelope
	lent []float32      // where rd decodes the next mean gradient: the agent's gradient arena
}

// lendGrads is what the follower's Readers decode gradient frames into
// (wire.Reader.LendGrads): nil, refusing the frame, except while
// awaitMean is waiting for one.
func (f *clusterFollower) lendGrads(int) []float32 { return f.lent }

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
// absorbs the full sync — parameters, target, optimizer state and the
// leader's global step — into the agent.
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
		f.rd.LendGrads(f.lendGrads)
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
		if err := a.ApplyParamBroadcast(b.Step, b.Params, b.Target, b.M, b.V, b.AdamStep, b.Loss); err != nil {
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

// pushFrame sends f.out, this step's gradient frame, to the leader.
func (f *clusterFollower) pushFrame() error {
	f.env = wire.Envelope{Type: wire.MsgGradFrame, GradFrame: &f.out}
	_ = f.conn.SetWriteDeadline(time.Now().Add(clusterWriteTimeout))
	_, err := f.wr.Write(&f.env)
	_ = f.conn.SetWriteDeadline(time.Time{})
	f.out.Grads = nil
	if err != nil {
		f.drop()
		return err
	}
	f.stats.FramesSent++
	return nil
}

// awaitMean blocks for the leader's mean gradient of the step after the
// agent's current one and reads it straight into the agent's gradient
// arena. Any failure — timeout, decode error, a frame from another
// connection's epoch or for another step (the follower missed one: its
// state is no longer the leader's) — drops the connection; the next
// train tick rejoins through the full sync. The frame returned is the
// Reader's, valid until its next Read.
func (f *clusterFollower) awaitMean(a *rl.Agent[EnginePrecision]) (*wire.GradFrame, error) {
	f.lent = a.Online.FlatGrads()
	_ = f.conn.SetReadDeadline(time.Now().Add(f.cfg.SyncTimeout))
	for {
		env, err := f.rd.Read()
		if err == nil {
			if env.Type != wire.MsgGradFrame {
				continue
			}
			if fr := env.GradFrame; fr.Rank != 0 || fr.Epoch != f.epoch || fr.Step != a.Steps()+1 || (fr.BatchN > 0) != (fr.Grads != nil) {
				err = fmt.Errorf("capes: mean gradient rank %d epoch %d step %d (%d workers), want rank 0 epoch %d step %d",
					fr.Rank, fr.Epoch, fr.Step, fr.BatchN, f.epoch, a.Steps()+1)
			}
		}
		f.lent = nil
		if err != nil {
			f.stats.BcastMisses++
			f.drop()
			return nil, err
		}
		_ = f.conn.SetReadDeadline(time.Time{})
		f.stats.Broadcasts++
		return env.GradFrame, nil
	}
}

// ---------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------

// startCluster builds the role transport during NewEngine.
func (e *Engine) startCluster(cc ClusterConfig) error {
	switch cc.Role {
	case ClusterLeader:
		l, err := newClusterLeader(cc, e.agent)
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

// ClusterSync forces a follower to dial, register and fully sync with
// the leader right now, bypassing the redial backoff. Session managers
// call it at boot so the follower is registered before the leader's
// first train tick; it is a no-op on leaders and non-cluster engines.
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
// replaced the agent (e.mu held): the leader serves full syncs from the
// restored agent and evicts every follower (each rejoins against it with
// a bumped epoch); a follower drops its connection and resyncs from the
// leader on its next train tick.
func (e *Engine) resyncClusterLocked() {
	if e.cluL != nil {
		e.cluL.resync(e.agent)
	}
	if e.cluF != nil {
		e.cluF.drop()
	}
}

// clusterGradients is the first half of either role's train tick: draw
// the minibatch and leave its gradient in the agent's gradient arena.
// The leader passes its stateMu, held around the fault injector's
// parameter poisoning — a rewrite of the arenas a join may be reading.
func (e *Engine) clusterGradients(now int64, stateMu *sync.Mutex) (batchN int, loss float64, ok bool) {
	if replay.ConstructMinibatchInto(e.db, e.rng, e.cfg.Hyper.MinibatchSize, e.rewardFn, &e.batch) != nil {
		return 0, 0, false
	}
	if e.faults != nil && e.faults.takePoison(e.agent.Steps()+1) {
		if stateMu != nil {
			stateMu.Lock()
		}
		e.poisonParamsLocked()
		if stateMu != nil {
			stateMu.Unlock()
		}
	}
	loss, ok = e.clusterRecompute(now)
	return e.batch.N, loss, ok
}

// clusterRecompute runs the gradient pass on the minibatch already drawn.
func (e *Engine) clusterRecompute(now int64) (loss float64, ok bool) {
	loss, err := e.agent.ComputeGradients(&e.batch)
	if err != nil {
		e.trainErrors++
		e.noteTrainFaultLocked(err, now)
		return 0, false
	}
	return loss, true
}

// clusterApply is the second half: step on the mean gradient sitting in
// the agent's gradient arena — the same call on every worker.
func (e *Engine) clusterApply(now int64, meanLoss float64) {
	if err := e.agent.ApplyGradients(meanLoss); err != nil {
		e.trainErrors++
		e.noteTrainFaultLocked(err, now)
	}
}

// clusterLeaderTick is the leader's train tick: compute the local
// gradient (rank 0), collect follower frames for this step, reduce in
// rank order into the local gradient arena, send the mean back, step.
// The engine lock is held throughout — collect can block up to
// CollectTimeout, which is the price of a strictly synchronous (and
// therefore deterministic) update schedule.
func (e *Engine) clusterLeaderTick(now int64) {
	l := e.cluL
	step := e.agent.Steps() + 1
	grads := e.agent.Online.FlatGrads()
	_, localLoss, local := e.clusterGradients(now, &l.stateMu)
	frames := l.collect(step)

	srcs := l.srcs[:0]
	lossSum := 0.0
	if local {
		srcs = append(srcs, grads)
		lossSum = localLoss
	}
	accepted, pass := 0, 0
	for i := range frames {
		if fr := &frames[i]; fr.BatchN > 0 && fr.Grads != nil {
			srcs = append(srcs, fr.Grads)
			lossSum += fr.Loss
			accepted++
		} else {
			pass++
		}
	}
	workers := len(srcs)
	meanLoss := 0.0
	var mean []EnginePrecision
	if workers > 0 {
		nn.ReduceMean(grads, srcs)
		mean, meanLoss = grads, lossSum/float64(workers)
	}
	clear(srcs)
	l.srcs = srcs
	l.release(frames, accepted, pass, workers)

	// The mean goes out before the step, so followers step while the
	// leader does; a round without any gradient still answers (a pass
	// frame), because followers block on the round's reply.
	l.stateMu.Lock()
	l.sendMean(step, workers, meanLoss, mean)
	if workers > 0 {
		e.clusterApply(now, meanLoss)
	}
	l.stateMu.Unlock()
}

// clusterFollowerTick is the follower's train tick: compute the local
// gradient, sync with the leader if needed, push the frame (a pass
// frame when the replay ring cannot form a minibatch yet), block for the
// mean gradient and step on it.
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
	batchN, loss, haveGrads := e.clusterGradients(now, nil)
	wasSynced := f.conn != nil && f.synced
	if err := f.ensureSynced(e.agent, now, false); err != nil {
		return
	}
	if !wasSynced && haveGrads {
		loss, haveGrads = e.clusterRecompute(now)
	}
	f.out = wire.GradFrame{Rank: f.cfg.Rank, Epoch: f.epoch, Step: e.agent.Steps() + 1}
	if haveGrads {
		f.out.BatchN, f.out.Loss, f.out.Grads = batchN, loss, e.agent.Online.FlatGrads()
	}
	if err := f.pushFrame(); err != nil {
		return
	}
	mean, err := f.awaitMean(e.agent)
	if err != nil {
		return
	}
	if mean.BatchN > 0 {
		e.clusterApply(now, mean.Loss)
	}
}
