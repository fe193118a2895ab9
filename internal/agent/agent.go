// Package agent implements the distributed deployment of Figure 1: the
// Interface Daemon (a TCP server that receives performance indicators
// from Monitoring Agents, reassembles cluster-wide frames, and broadcasts
// actions) and the node-side Monitoring/Control Agent client. The
// in-process experiments do not need these; they exist so the system can
// be deployed as separate processes (cmd/capesd, cmd/capes-agent,
// cmd/capes-sim) exactly as the paper describes.
//
// The transport is fault-tolerant: agents reconnect automatically with
// exponential backoff, every (re)connection carries a session epoch so
// differential encoder/decoder state can never straddle a reconnect,
// heartbeats plus per-connection read deadlines let the daemon evict
// dead peers, and ticks whose frames stay incomplete past a deadline
// are gap-filled from the latest known values or dropped — all of it
// counted in TransportStats.
package agent

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"capes/internal/wire"
)

// FrameSink receives reassembled cluster frames: the concatenated PI
// vectors of all nodes for one sampling tick. The daemon calls it from
// its own goroutines, one frame at a time, in the order the frames were
// resolved; the frame is the sink's to keep.
type FrameSink func(tick int64, frame []float64)

// DaemonOpts tunes the daemon's fault-tolerance behavior. The zero
// value means "use the default" for every field.
type DaemonOpts struct {
	// LivenessTimeout is the per-connection read deadline: a connection
	// that stays silent (no indicators, no heartbeats) this long is
	// evicted. Negative disables eviction. Default 30s.
	LivenessTimeout time.Duration
	// PartialFrameTimeout bounds how long an incomplete tick may wait
	// for stragglers before it is gap-filled or dropped. Negative
	// disables the sweeper (the MaxPendingTicks bound still applies).
	// Default 10s. The sweeper runs every PartialFrameTimeout/4, clamped
	// to [10ms, 1s].
	PartialFrameTimeout time.Duration
	// MaxPendingTicks bounds the incomplete-tick assembly map: when a
	// new tick would exceed it, the oldest pending tick is resolved
	// (gap-filled or dropped) immediately. Default 256.
	MaxPendingTicks int
	// BroadcastTimeout bounds one action write to a control agent.
	// Default 10s.
	BroadcastTimeout time.Duration
}

func (o DaemonOpts) withDefaults() DaemonOpts {
	if o.LivenessTimeout == 0 {
		o.LivenessTimeout = 30 * time.Second
	}
	if o.PartialFrameTimeout == 0 {
		o.PartialFrameTimeout = 10 * time.Second
	}
	if o.MaxPendingTicks == 0 {
		o.MaxPendingTicks = 256
	}
	if o.BroadcastTimeout == 0 {
		o.BroadcastTimeout = 10 * time.Second
	}
	return o
}

// TransportStats counts the daemon's transport-level events. Invariant
// (checked by the chaos harness): TicksStarted == CompleteFrames +
// PartialFrames + DroppedTicks + PendingTicks, and ActionsAttempted ==
// ActionsSent + DroppedActions — every tick and action is accounted
// for, none lost silently.
type TransportStats struct {
	Hellos           int64 `json:"hellos"`            // successful registrations
	Reconnects       int64 `json:"reconnects"`        // re-registrations of an already-seen node
	Evictions        int64 `json:"evictions"`         // connections dropped by the liveness deadline
	Heartbeats       int64 `json:"heartbeats"`        // heartbeat messages received
	StaleIndicators  int64 `json:"stale_indicators"`  // indicators dropped for an old epoch
	TicksStarted     int64 `json:"ticks_started"`     // ticks that began frame assembly
	CompleteFrames   int64 `json:"complete_frames"`   // frames emitted with every node reporting
	PartialFrames    int64 `json:"partial_frames"`    // frames emitted after gap-filling
	GapFilledSlots   int64 `json:"gap_filled_slots"`  // node slots filled from latest across all partial frames
	DroppedTicks     int64 `json:"dropped_ticks"`     // ticks abandoned (no emission)
	ActionsAttempted int64 `json:"actions_attempted"` // control-agent action writes attempted
	ActionsSent      int64 `json:"actions_sent"`      // action writes that succeeded
	DroppedActions   int64 `json:"dropped_actions"`   // action writes that failed or deadlined
	PendingTicks     int   `json:"pending_ticks"`     // gauge: ticks currently mid-assembly
}

// pendingTick tracks one tick's frame assembly: which nodes reported
// (a bitset, one bit per node) and how many.
type pendingTick struct {
	got     []uint64
	n       int
	firstAt time.Time
}

// mark records node's report; a repeat does not count twice.
func (p *pendingTick) mark(node int) {
	if w, bit := node/64, uint64(1)<<(node%64); p.got[w]&bit == 0 {
		p.got[w] |= bit
		p.n++
	}
}

func (p *pendingTick) has(node int) bool {
	return p.got[node/64]&(1<<(node%64)) != 0
}

// Daemon is the Interface Daemon: the single writer in front of the
// Replay DB and the broadcast point for actions (§3.3).
type Daemon struct {
	ln         net.Listener
	nodes      int
	pisPerNode int
	onFrame    FrameSink
	onChange   func(tick int64, name string)
	opts       DaemonOpts

	mu       sync.Mutex
	decoders map[int]*wire.DiffDecoder
	epochs   map[int]uint64   // current session epoch per node
	owners   map[int]net.Conn // the connection that most recently registered each node
	latest   []float64        // most recent full PI vector of every node, in frame layout
	reported []bool           // whether latest holds anything a node ever sent
	seen     map[int64]*pendingTick
	spare    []*pendingTick        // resolved ticks, cleared for reuse
	controls map[int]net.Conn      // control-agent connections by node
	conns    map[net.Conn]struct{} // every live connection (monitor + control)
	stats    TransportStats
	closed   bool
	outbox   []emission // frames resolved under mu, awaiting delivery

	// emitMu serializes frame delivery, so the sink sees frames in the
	// order they were resolved whichever goroutine resolved them.
	emitMu sync.Mutex

	done chan struct{}
	wg   sync.WaitGroup
}

// NewDaemonOpts starts an Interface Daemon listening on addr (use
// "127.0.0.1:0" for tests) with the given fault-tolerance options (the
// zero DaemonOpts takes the defaults). onChange may be nil.
func NewDaemonOpts(addr string, nodes, pisPerNode int, onFrame FrameSink, onChange func(int64, string), opts DaemonOpts) (*Daemon, error) {
	if nodes <= 0 || pisPerNode <= 0 {
		return nil, fmt.Errorf("agent: nodes and pisPerNode must be positive")
	}
	if onFrame == nil {
		return nil, fmt.Errorf("agent: onFrame sink is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		ln:         ln,
		nodes:      nodes,
		pisPerNode: pisPerNode,
		onFrame:    onFrame,
		onChange:   onChange,
		opts:       opts.withDefaults(),
		decoders:   make(map[int]*wire.DiffDecoder),
		epochs:     make(map[int]uint64),
		owners:     make(map[int]net.Conn),
		latest:     make([]float64, nodes*pisPerNode),
		reported:   make([]bool, nodes),
		seen:       make(map[int64]*pendingTick),
		controls:   make(map[int]net.Conn),
		conns:      make(map[net.Conn]struct{}),
		done:       make(chan struct{}),
	}
	d.wg.Add(1)
	go d.acceptLoop()
	if d.opts.PartialFrameTimeout > 0 {
		d.wg.Add(1)
		go d.sweepLoop()
	}
	return d, nil
}

// Addr returns the daemon's listen address.
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// TransportStats snapshots the transport counters.
func (d *Daemon) TransportStats() TransportStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	st.PendingTicks = len(d.seen)
	return st
}

func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return // listener closed
		}
		d.wg.Add(1)
		go d.serveConn(conn)
	}
}

// setReadDeadline arms the liveness deadline on conn (no-op when
// eviction is disabled).
func (d *Daemon) setReadDeadline(conn net.Conn) {
	if d.opts.LivenessTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(d.opts.LivenessTimeout))
	}
}

func (d *Daemon) serveConn(conn net.Conn) {
	defer d.wg.Done()
	defer conn.Close()
	// Register so Close can terminate this connection even if it is a
	// monitor blocked in ReadMsg (control conns alone are not enough —
	// an unclosed monitor would hang Close in wg.Wait forever).
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.conns[conn] = struct{}{}
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		delete(d.conns, conn)
		d.mu.Unlock()
	}()
	// First message must be Hello — under the same liveness deadline,
	// so a connection that never registers cannot pin a goroutine.
	rd, wr := wire.NewReader(conn), wire.NewWriter(conn)
	d.setReadDeadline(conn)
	env, err := rd.Read()
	if err != nil || env.Type != wire.MsgHello {
		if isTimeout(err) {
			d.mu.Lock()
			d.stats.Evictions++
			d.mu.Unlock()
		}
		return
	}
	h := *env.Hello // the Reader reuses env on the next Read
	refuse := func(format string, args ...any) {
		wr.Write(&wire.Envelope{Type: wire.MsgAck, Ack: &wire.Ack{
			NodeID: h.NodeID, OK: false, Error: fmt.Sprintf(format, args...),
		}})
	}
	if h.Proto != wire.ProtoVersion {
		// Checked first: a peer on another version sent nothing else
		// this daemon can interpret.
		refuse("protocol version %d, daemon speaks %d", h.Proto, wire.ProtoVersion)
		return
	}
	if h.NumPIs != d.pisPerNode || h.NodeID < 0 || h.NodeID >= d.nodes {
		refuse("bad registration: node %d, %d PIs", h.NodeID, h.NumPIs)
		return
	}
	d.mu.Lock()
	if h.Epoch < d.epochs[h.NodeID] {
		// A delayed Hello from an older session than the one already
		// registered: accepting it would let a zombie connection feed
		// differential state into current frames.
		d.mu.Unlock()
		refuse("stale epoch %d for node %d", h.Epoch, h.NodeID)
		return
	}
	// Fresh session: swap in a clean DiffDecoder keyed by the new epoch.
	// The agent resets its DiffEncoder on reconnect and re-sends the
	// full vector, so decoder state never straddles connections.
	_, seenBefore := d.epochs[h.NodeID]
	d.epochs[h.NodeID] = h.Epoch
	d.owners[h.NodeID] = conn
	d.decoders[h.NodeID] = wire.NewDiffDecoder(d.pisPerNode)
	if h.Role == "control" || h.Role == "monitor+control" {
		d.controls[h.NodeID] = conn
	}
	d.stats.Hellos++
	if seenBefore {
		d.stats.Reconnects++
	}
	d.mu.Unlock()
	wr.Write(&wire.Envelope{Type: wire.MsgAck, Ack: &wire.Ack{NodeID: h.NodeID, OK: true}})

	for {
		d.setReadDeadline(conn)
		env, err := rd.Read()
		if err != nil {
			d.mu.Lock()
			if isTimeout(err) && !d.closed {
				d.stats.Evictions++
			}
			if d.controls[h.NodeID] == conn {
				delete(d.controls, h.NodeID)
			}
			d.mu.Unlock()
			return
		}
		switch env.Type {
		case wire.MsgIndicators:
			d.handleIndicators(env.Indicators, conn)
		case wire.MsgHeartbeat:
			// The read above already refreshed the deadline; just count.
			d.mu.Lock()
			d.stats.Heartbeats++
			d.mu.Unlock()
		case wire.MsgWorkloadChange:
			if d.onChange != nil {
				d.onChange(env.WorkloadChange.Tick, env.WorkloadChange.Name)
			}
		}
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// emission is a frame resolved under the lock, emitted outside it.
type emission struct {
	tick  int64
	frame []float64
}

// unlockAndDeliver releases mu and hands the frames queued in outbox to
// the sink, oldest first. The sink never runs under mu, and a frame
// resolved later — by the sweeper, by another connection — is never
// delivered earlier: whoever holds emitMu delivers everything queued so
// far, in order.
func (d *Daemon) unlockAndDeliver() {
	queued := len(d.outbox) > 0
	d.mu.Unlock()
	if !queued {
		return
	}
	d.emitMu.Lock()
	defer d.emitMu.Unlock()
	d.mu.Lock()
	batch := d.outbox
	d.outbox = nil
	d.mu.Unlock()
	for _, e := range batch {
		d.onFrame(e.tick, e.frame)
	}
}

// handleIndicators merges one node's message into the node's vector and
// the tick's assembly. msg is the connection Reader's storage: nothing
// here may keep it past the call.
func (d *Daemon) handleIndicators(msg *wire.Indicators, from net.Conn) {
	d.mu.Lock()
	if msg.NodeID < 0 || msg.NodeID >= d.nodes {
		d.mu.Unlock()
		return
	}
	if msg.Epoch != d.epochs[msg.NodeID] || d.owners[msg.NodeID] != from {
		// Differential state from a previous connection of this node
		// (old epoch), or from a conn that lost the node registration
		// to a newer one — applying either to the fresh decoder would
		// silently desync the reconstructed vectors.
		d.stats.StaleIndicators++
		d.mu.Unlock()
		return
	}
	dec := d.decoders[msg.NodeID]
	if dec == nil || dec.Merge(msg) != nil {
		d.mu.Unlock()
		return
	}
	copy(d.latest[msg.NodeID*d.pisPerNode:], dec.Current())
	d.reported[msg.NodeID] = true
	p := d.seen[msg.Tick]
	if p == nil {
		p = d.newPendingLocked()
		d.seen[msg.Tick] = p
		d.stats.TicksStarted++
		// Bound the assembly map: a node that died mid-tick must not
		// leak its incomplete ticks forever. Resolve the oldest pending
		// tick now (gap-fill or drop) when over budget.
		if len(d.seen) > d.opts.MaxPendingTicks {
			oldest := int64(1<<63 - 1)
			for t := range d.seen {
				if t < oldest {
					oldest = t
				}
			}
			if frame, ok := d.resolveLocked(oldest); ok {
				d.outbox = append(d.outbox, emission{oldest, frame})
			}
		}
	}
	p.mark(msg.NodeID)
	if p.n == d.nodes {
		d.releaseLocked(msg.Tick, p)
		d.stats.CompleteFrames++
		d.outbox = append(d.outbox, emission{msg.Tick, d.buildFrameLocked()})
	}
	d.unlockAndDeliver()
}

// newPendingLocked returns a cleared pendingTick stamped now, reusing a
// resolved one when there is one.
func (d *Daemon) newPendingLocked() *pendingTick {
	var p *pendingTick
	if n := len(d.spare); n > 0 {
		p, d.spare = d.spare[n-1], d.spare[:n-1]
	} else {
		p = &pendingTick{got: make([]uint64, (d.nodes+63)/64)}
	}
	p.firstAt = time.Now()
	return p
}

// releaseLocked takes a resolved tick out of the assembly map and clears
// it for reuse.
func (d *Daemon) releaseLocked(tick int64, p *pendingTick) {
	delete(d.seen, tick)
	clear(p.got)
	p.n = 0
	d.spare = append(d.spare, p)
}

// buildFrameLocked snapshots every node's latest full vector.
func (d *Daemon) buildFrameLocked() []float64 {
	return append([]float64(nil), d.latest...)
}

// resolveLocked finalizes an incomplete tick: gap-fill it from latest
// (every missing node must have reported at least once, ever) and
// return the frame to emit, or drop it with accounting. The tick is
// removed from the assembly map either way.
func (d *Daemon) resolveLocked(tick int64) ([]float64, bool) {
	p := d.seen[tick]
	if p == nil {
		return nil, false
	}
	missing := d.nodes - p.n
	fillable := true
	for n := 0; n < d.nodes && fillable; n++ {
		// Nothing ever received from a missing node: a gap-filled slot
		// would be fabricated, not stale. Drop instead.
		fillable = p.has(n) || d.reported[n]
	}
	d.releaseLocked(tick, p)
	if !fillable {
		d.stats.DroppedTicks++
		return nil, false
	}
	d.stats.PartialFrames++
	d.stats.GapFilledSlots += int64(missing)
	return d.buildFrameLocked(), true
}

// sweepLoop periodically resolves ticks stuck past PartialFrameTimeout
// so the control loop keeps ticking when a node dies mid-frame.
func (d *Daemon) sweepLoop() {
	defer d.wg.Done()
	t := time.NewTicker(min(max(d.opts.PartialFrameTimeout/4, 10*time.Millisecond), time.Second))
	defer t.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-t.C:
			d.sweep(time.Now())
		}
	}
}

// sweep resolves every pending tick older than PartialFrameTimeout,
// emitting gap-filled frames in tick order.
func (d *Daemon) sweep(now time.Time) {
	d.mu.Lock()
	var expired []int64
	for tick, p := range d.seen {
		if now.Sub(p.firstAt) >= d.opts.PartialFrameTimeout {
			expired = append(expired, tick)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	for _, tick := range expired {
		if frame, ok := d.resolveLocked(tick); ok {
			d.outbox = append(d.outbox, emission{tick, frame})
		}
	}
	d.unlockAndDeliver()
}

// BroadcastAction sends the parameter vector to every connected Control
// Agent. Returns the number of agents reached. Each write carries a
// deadline so one stalled agent (full TCP window, hung host) cannot
// wedge the broadcast path forever; a deadlined or failed write closes
// and deregisters that agent and the drop is counted.
func (d *Daemon) BroadcastAction(tick int64, id int, values []float64) int {
	// Encoded once; every control agent is sent the same bytes.
	frame, err := wire.Encode(&wire.Envelope{Type: wire.MsgAction, Action: &wire.Action{
		Tick: tick, ID: id, Values: values,
	}})
	if err != nil {
		return 0 // too large to frame: nothing is attempted, no stream is touched
	}
	type target struct {
		node int
		conn net.Conn
	}
	d.mu.Lock()
	targets := make([]target, 0, len(d.controls))
	for n, c := range d.controls {
		targets = append(targets, target{n, c})
	}
	d.stats.ActionsAttempted += int64(len(targets))
	d.mu.Unlock()
	sent := 0
	for _, tg := range targets {
		tg.conn.SetWriteDeadline(time.Now().Add(d.opts.BroadcastTimeout))
		_, err := tg.conn.Write(frame)
		d.mu.Lock()
		if err == nil {
			d.stats.ActionsSent++
			d.mu.Unlock()
			sent++
			continue
		}
		d.stats.DroppedActions++
		// A failed (possibly partial) write leaves the length-framed
		// stream unrecoverable — deregister now and close so the agent
		// reconnects with a clean stream; serveConn cleans up the rest.
		if d.controls[tg.node] == tg.conn {
			delete(d.controls, tg.node)
		}
		d.mu.Unlock()
		tg.conn.Close()
	}
	return sent
}

// NumControlAgents returns how many control agents are registered.
func (d *Daemon) NumControlAgents() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.controls)
}

// Close stops the daemon and waits for connection goroutines to finish.
// Every live agent connection — monitor and control alike — is closed,
// so Close returns promptly even while agents are still streaming.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	conns := make([]net.Conn, 0, len(d.conns))
	for c := range d.conns {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	close(d.done)
	err := d.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	d.wg.Wait()
	return err
}
