package agent

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"capes/internal/wire"
)

// ErrReconnecting reports that the agent's connection to the daemon is
// down and a background reconnect (with exponential backoff) is in
// progress. Callers should skip the tick — the Replay DB tolerates
// missing samples (§3.5) — and retry on the next one.
var ErrReconnecting = errors.New("agent: reconnecting")

// ErrClosed reports an operation on an agent after Close.
var ErrClosed = errors.New("agent: closed")

// Opts tunes the node agent's fault-tolerance behavior. The zero value
// means "use the default" for every field.
type Opts struct {
	// BackoffMin/BackoffMax bound the exponential reconnect backoff.
	// Each failed attempt doubles the delay from BackoffMin up to
	// BackoffMax, jittered uniformly into [delay/2, delay] so a herd of
	// agents does not reconnect in lockstep. Defaults 50ms and 5s.
	BackoffMin, BackoffMax time.Duration
	// DialTimeout bounds one connect + registration handshake.
	// Default 5s.
	DialTimeout time.Duration
	// WriteTimeout bounds every message write. Default 10s.
	WriteTimeout time.Duration
	// HeartbeatInterval is how often an idle connection is kept alive
	// for the daemon's liveness deadline. Negative disables heartbeats.
	// Default 2s.
	HeartbeatInterval time.Duration
	// MaxAttempts caps consecutive failed reconnect attempts before the
	// agent gives up permanently (Actions closes, sends return the
	// terminal error). 0 retries forever.
	MaxAttempts int
	// Seed seeds the backoff jitter; 0 derives one from the node id so
	// runs stay reproducible.
	Seed int64
	// DrainTimeout bounds how long Close waits for the daemon to drain
	// and acknowledge (by closing its side) the frames already written.
	// Negative closes immediately. Default 2s.
	DrainTimeout time.Duration
	// OnReconnect, when non-nil, is called after each successful
	// reconnect with the new session epoch (observability/test hook).
	OnReconnect func(epoch uint64)
}

func (o Opts) withDefaults(nodeID int) Opts {
	if o.BackoffMin == 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 2 * time.Second
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = int64(nodeID) + 1
	}
	return o
}

// permanentError marks a failure no amount of retrying will fix (the
// daemon rejected the registration).
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// NodeAgent is the client side: the Monitoring Agent (ships differential
// PI updates) and Control Agent (receives actions) for one node. A
// dropped connection does not kill it: a supervisor goroutine redials
// with exponential backoff and a fresh session epoch, the Actions
// channel stays open across reconnects, and sends during an outage
// return ErrReconnecting.
type NodeAgent struct {
	addr   string
	nodeID int
	numPIs int
	role   string
	opts   Opts

	actions chan wire.Action
	done    chan struct{}
	drained chan struct{} // closed when the supervisor exits (peer done)

	mu         sync.Mutex
	conn       net.Conn     // nil while reconnecting
	w          *wire.Writer // on conn; its buffer is reused by every send
	enc        *wire.DiffEncoder
	ind        wire.Indicators // the message enc fills each tick, reused
	epoch      uint64
	closed     bool
	failed     error // terminal failure; sends return it
	reconnects int64
	sentBytes  int64
	sentMsgs   int64
}

// Dial connects a node agent to the Interface Daemon with default
// fault-tolerance options. role is "monitor", "control" or
// "monitor+control".
func Dial(addr string, nodeID, numPIs int, role string) (*NodeAgent, error) {
	return DialOpts(addr, nodeID, numPIs, role, Opts{})
}

// DialOpts is Dial with explicit fault-tolerance options. The initial
// connection is synchronous — a daemon that is down or rejects the
// registration fails the call — and only later drops are retried.
func DialOpts(addr string, nodeID, numPIs int, role string, opts Opts) (*NodeAgent, error) {
	a := &NodeAgent{
		addr:    addr,
		nodeID:  nodeID,
		numPIs:  numPIs,
		role:    role,
		opts:    opts.withDefaults(nodeID),
		actions: make(chan wire.Action, 64),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	conn, err := a.handshake(1)
	if err != nil {
		return nil, err
	}
	a.conn, a.w = conn, wire.NewWriter(conn)
	a.epoch = 1
	a.enc = wire.NewDiffEncoder(nodeID, numPIs)
	go a.supervise(conn)
	go a.heartbeatLoop()
	return a, nil
}

// handshake dials and registers one connection carrying epoch.
func (a *NodeAgent) handshake(epoch uint64) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", a.addr, a.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	host, _ := conn.LocalAddr().(*net.TCPAddr)
	hello := &wire.Envelope{Type: wire.MsgHello, Hello: &wire.Hello{
		NodeID: a.nodeID, Role: a.role, NumPIs: a.numPIs,
		Hostname: fmt.Sprint(host), Epoch: epoch, Proto: wire.ProtoVersion,
	}}
	conn.SetDeadline(time.Now().Add(a.opts.DialTimeout))
	if err := wire.WriteMsg(conn, hello); err != nil {
		conn.Close()
		return nil, err
	}
	ack, err := wire.ReadMsg(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	if ack.Type != wire.MsgAck {
		conn.Close()
		return nil, permanentError{fmt.Errorf("agent: registration rejected")}
	}
	if !ack.Ack.OK {
		conn.Close()
		return nil, permanentError{fmt.Errorf("agent: registration rejected: %s", ack.Ack.Error)}
	}
	return conn, nil
}

// supervise owns the connection lifecycle: read actions until the
// connection drops, then redial with backoff and a bumped epoch. The
// actions channel closes only on Close or a terminal failure.
func (a *NodeAgent) supervise(conn net.Conn) {
	defer close(a.actions)
	defer close(a.drained)
	for {
		a.readLoop(conn)
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			return
		}
		if a.conn == conn {
			a.conn, a.w = nil, nil
		}
		a.mu.Unlock()
		conn.Close()
		next, err := a.redial()
		if err != nil {
			a.mu.Lock()
			a.failed = err
			a.mu.Unlock()
			return
		}
		if next == nil {
			return // closed while redialing
		}
		conn = next
	}
}

// readLoop delivers actions from one connection until it errors.
func (a *NodeAgent) readLoop(conn net.Conn) {
	rd := wire.NewReader(conn)
	for {
		env, err := rd.Read()
		if err != nil {
			return
		}
		if env.Type == wire.MsgAction {
			act := *env.Action
			act.Values = append([]float64(nil), act.Values...) // rd reuses its own
			select {
			case a.actions <- act:
			default: // drop if the consumer is stuck; next action supersedes
			}
		}
	}
}

// redial reconnects with exponential backoff + jitter. Returns the new
// connection, (nil, nil) when the agent was closed meanwhile, or a
// terminal error when the daemon rejects us or MaxAttempts is spent.
func (a *NodeAgent) redial() (net.Conn, error) {
	rng := rand.New(rand.NewSource(a.opts.Seed + int64(a.currentEpoch())))
	attempt := 0
	for {
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			return nil, nil
		}
		epoch := a.epoch + 1
		a.mu.Unlock()

		conn, err := a.handshake(epoch)
		if err == nil {
			if !a.adopt(conn, epoch) {
				conn.Close()
				return nil, nil
			}
			if a.opts.OnReconnect != nil {
				a.opts.OnReconnect(epoch)
			}
			return conn, nil
		}
		var perm permanentError
		if errors.As(err, &perm) {
			return nil, perm.err
		}
		attempt++
		if a.opts.MaxAttempts > 0 && attempt >= a.opts.MaxAttempts {
			return nil, fmt.Errorf("agent: giving up after %d reconnect attempts: %w", attempt, err)
		}
		select {
		case <-a.done:
			return nil, nil
		case <-time.After(a.backoff(rng, attempt)):
		}
	}
}

// adopt installs a freshly-registered connection: new epoch, reset
// DiffEncoder (the first Encode re-sends the full vector, resyncing the
// daemon's fresh decoder). Returns false if the agent closed meanwhile.
func (a *NodeAgent) adopt(conn net.Conn, epoch uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false
	}
	a.conn, a.w = conn, wire.NewWriter(conn)
	a.epoch = epoch
	a.enc = wire.NewDiffEncoder(a.nodeID, a.numPIs)
	a.reconnects++
	return true
}

// backoff computes the jittered delay for the given 1-based attempt.
func (a *NodeAgent) backoff(rng *rand.Rand, attempt int) time.Duration {
	d := a.opts.BackoffMin
	for i := 1; i < attempt && d < a.opts.BackoffMax; i++ {
		d *= 2
	}
	if d > a.opts.BackoffMax {
		d = a.opts.BackoffMax
	}
	// Jitter into [d/2, d].
	half := int64(d / 2)
	return time.Duration(half + rng.Int63n(half+1))
}

func (a *NodeAgent) currentEpoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// heartbeatLoop keeps the current connection alive for the daemon's
// liveness deadline while no indicators flow.
func (a *NodeAgent) heartbeatLoop() {
	if a.opts.HeartbeatInterval <= 0 {
		return
	}
	t := time.NewTicker(a.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-a.done:
			return
		case <-t.C:
			a.mu.Lock()
			if a.closed {
				a.mu.Unlock()
				return
			}
			if a.conn != nil {
				// Not counted in TrafficStats (that is the monitoring
				// traffic); a failed write kicks the reconnect by itself.
				a.writeLocked(&wire.Envelope{Type: wire.MsgHeartbeat, Heartbeat: &wire.Heartbeat{
					NodeID: a.nodeID, Epoch: a.epoch,
				}})
			}
			a.mu.Unlock()
		}
	}
}

// liveLocked reports why the agent cannot send right now, nil if it can.
func (a *NodeAgent) liveLocked() error {
	switch {
	case a.closed:
		return ErrClosed
	case a.failed != nil:
		return a.failed
	case a.conn == nil:
		return ErrReconnecting
	}
	return nil
}

// writeLocked frames env onto the live connection under the write
// deadline and returns the frame's size. A failed write drops the
// connection, which wakes the supervisor's readLoop into a redial.
func (a *NodeAgent) writeLocked(env *wire.Envelope) (int, error) {
	a.conn.SetWriteDeadline(time.Now().Add(a.opts.WriteTimeout))
	n, err := a.w.Write(env)
	if err != nil {
		a.conn.Close()
		a.conn, a.w = nil, nil
		return 0, fmt.Errorf("%w: %v", ErrReconnecting, err)
	}
	return n, nil
}

// send writes one envelope on the live connection and counts it.
func (a *NodeAgent) send(env *wire.Envelope) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.liveLocked(); err != nil {
		return err
	}
	n, err := a.writeLocked(env)
	if err != nil {
		return err
	}
	a.sentBytes += int64(n)
	a.sentMsgs++
	return nil
}

// SendIndicators diffs and ships this tick's PI vector. During an
// outage it returns ErrReconnecting; the tick is skipped, and after the
// background reconnect the fresh encoder re-sends the full vector.
func (a *NodeAgent) SendIndicators(tick int64, pis []float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.liveLocked(); err != nil {
		return err
	}
	// Encode under the lock: the encoder's prev-state must stay in
	// lockstep with the connection it was created for.
	if err := a.enc.EncodeInto(&a.ind, tick, pis); err != nil {
		return err
	}
	a.ind.Epoch = a.epoch
	n, err := a.writeLocked(&wire.Envelope{Type: wire.MsgIndicators, Indicators: &a.ind})
	if err != nil {
		return err
	}
	a.sentBytes += int64(n)
	a.sentMsgs++
	return nil
}

// SendWorkloadChange notifies the daemon that a new workload started.
// Like SendIndicators it returns ErrClosed after Close and
// ErrReconnecting during an outage.
func (a *NodeAgent) SendWorkloadChange(tick int64, name string) error {
	return a.send(&wire.Envelope{
		Type:           wire.MsgWorkloadChange,
		WorkloadChange: &wire.WorkloadChange{Tick: tick, Name: name},
	})
}

// Actions returns the channel of received parameter-change commands.
// The channel stays open across reconnects and closes on Close (or a
// terminal reconnect failure).
func (a *NodeAgent) Actions() <-chan wire.Action { return a.actions }

// TrafficStats returns bytes and messages sent so far (Table 2's
// "average message size per client").
func (a *NodeAgent) TrafficStats() (bytes, msgs int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sentBytes, a.sentMsgs
}

// Close shuts the agent down: the connection is closed, the supervisor
// and heartbeat goroutines exit, and Actions closes.
//
// The close is graceful: the write side is half-closed first (FIN) so
// indicator frames already written reach the daemon and are processed
// before the teardown. Closing outright would reset the connection
// whenever an unread action broadcast sits in the receive buffer —
// discarding the in-flight tail of the monitor stream with it. Close
// waits (bounded by DrainTimeout) for the daemon to drain to EOF and
// close its side, then closes fully; a dead peer cannot hang it.
func (a *NodeAgent) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	conn := a.conn
	a.conn, a.w = nil, nil
	a.mu.Unlock()
	close(a.done)
	if conn == nil {
		return nil
	}
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := conn.(closeWriter); ok && a.opts.DrainTimeout > 0 {
		if err := cw.CloseWrite(); err == nil {
			select {
			case <-a.drained:
			case <-time.After(a.opts.DrainTimeout):
			}
		}
	}
	return conn.Close()
}
