// Package wire implements the CAPES network protocol between Monitoring
// Agents, the Interface Daemon and Control Agents (§3.3) and the cluster
// gradient plane: length-prefixed binary frames over TCP, with the
// bandwidth optimization the paper calls out — a differential encoding
// that only transmits performance indicators whose values changed since
// the previous sampling tick.
//
// Wire format (protocol version 5), one frame per message:
//
//	frame   := u32 length (big-endian) | u8 MsgType | body
//	           length counts the type byte and the body: 1..MaxFrameBytes
//	varint  := zig-zag LEB128 (encoding/binary) — every int / int64 field
//	uvarint := LEB128 — uint64 fields and element counts
//	f64/f32 := raw IEEE-754 bits, little-endian (bit-exact: NaN payloads, −0)
//	string  := uvarint n | n bytes
//	bool    := u8, 0 or 1
//
//	Hello          varint Proto | varint NodeID | string Role | varint NumPIs | string Hostname | uvarint Epoch
//	Indicators     varint NodeID | varint Tick | uvarint Epoch | uvarint n | n × varint index delta | n × f64
//	Action         varint Tick | varint ID | uvarint n | n × f64
//	Ack            varint NodeID | varint Tick | bool OK | string Error
//	WorkloadChange varint Tick | string Name
//	Heartbeat      varint NodeID | uvarint Epoch
//	GradFrame      varint Rank | uvarint Epoch | varint Step | varint BatchN | f64 Loss | uvarint n | n × f32
//	ParamBcast     varint Step | bool Sync | f64 Loss | varint AdamStep |
//	               uvarint np | uvarint nt | uvarint nm | uvarint nv |
//	               np × f32 (θ) | nt × f32 (θ⁻) | nm × f32 (Adam m) | nv × f32 (Adam v)
//
// A GradFrame travels both ways on the gradient plane: a follower's
// gradient up (Rank ≥ 1), the leader's rank-ordered mean back (Rank 0,
// BatchN = workers folded). Its arena and the four of a ParamBcast are
// the only large payloads; on a little-endian target a Writer hands them
// to the socket as the bytes they already are, behind the header in one
// vectored write, and a Reader reads them from the socket straight into
// their final slice — for a GradFrame one the caller lends (LendGrads).
//
// Indicators.Indices travel as deltas from the previous index (from 0
// for the first), so the ascending runs DiffEncoder produces cost one
// byte each: a steady-state message is ≈ 9 B per changed PI plus a
// ≈ 10 B header. An empty slice and a nil slice both encode as count 0
// and decode as nil.
//
// There is no compression and no self-describing layer, so a decoded
// message cannot be larger than a small multiple of its frame (the worst
// case is a one-byte index delta decoding to an eight-byte int): every
// count is checked against the bytes left in the frame before anything
// is allocated, trailing bytes are an error, and MaxFrameBytes is the
// only size bound a reader needs.
//
// Versions do not interoperate: a Hello leads with the sender's
// ProtoVersion and both the Interface Daemon and the cluster leader
// refuse a peer that speaks another one. That leading field is the one
// part of the layout later versions must keep.
package wire

import (
	"fmt"
)

// ProtoVersion is the wire protocol revision this package speaks; see
// the package comment for the layout. Versions 1–3 were gob+flate
// streams; version 4 had a two-arena ParamBcast sent every step. Neither
// is understood.
const ProtoVersion = 5

// MsgType discriminates protocol messages.
type MsgType int

// Protocol message types.
const (
	MsgHello MsgType = iota + 1
	MsgIndicators
	MsgAction
	MsgAck
	MsgWorkloadChange
	MsgHeartbeat
	MsgGradFrame
	MsgParamBcast
)

// String names the message type.
func (m MsgType) String() string {
	switch m {
	case MsgHello:
		return "hello"
	case MsgIndicators:
		return "indicators"
	case MsgAction:
		return "action"
	case MsgAck:
		return "ack"
	case MsgWorkloadChange:
		return "workload-change"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgGradFrame:
		return "grad-frame"
	case MsgParamBcast:
		return "param-bcast"
	default:
		return fmt.Sprintf("MsgType(%d)", int(m))
	}
}

// Hello registers an agent with the Interface Daemon.
type Hello struct {
	NodeID   int    // which target-system node this agent runs on
	Role     string // "monitor", "control", or "monitor+control"
	NumPIs   int    // indicators this node reports per sampling tick
	Hostname string
	// Epoch is the agent's session epoch: it starts at 1 on the first
	// connection and increments on every reconnect. The daemon keys its
	// DiffDecoder on it so differential state from a previous connection
	// can never contaminate frames assembled after a reconnect.
	Epoch uint64
	// Proto is the sender's ProtoVersion. A receiver that speaks another
	// version refuses the registration; a Hello decoded from such a peer
	// carries only this field.
	Proto int
}

// Indicators carries one node's sampling tick, differentially encoded:
// only the indicators whose values changed are listed.
type Indicators struct {
	NodeID  int
	Tick    int64
	Indices []int     // which PI slots changed
	Values  []float64 // their new values, aligned with Indices
	// Epoch stamps the message with the connection's session epoch (see
	// Hello.Epoch). The daemon drops indicators whose epoch does not
	// match the node's current epoch — stale data from a dead
	// connection that raced a reconnect.
	Epoch uint64
}

// Heartbeat keeps an otherwise-idle connection visibly alive: the
// daemon refreshes the sender's read deadline on every message it
// receives, heartbeats included, and evicts connections that stay
// silent past the liveness timeout.
type Heartbeat struct {
	NodeID int
	Epoch  uint64
}

// Action tells Control Agents to apply a parameter vector.
type Action struct {
	Tick   int64
	Values []float64
	ID     int // action id, for the replay record
}

// Ack confirms receipt/application.
type Ack struct {
	NodeID int
	Tick   int64
	OK     bool
	Error  string
}

// WorkloadChange notifies the DRL engine that the job scheduler started a
// new workload (triggers the ε bump, §3.6).
type WorkloadChange struct {
	Tick int64
	Name string
}

// GradFrame is one worker's side of one global train step of a
// data-parallel cluster session. Upstream (Rank ≥ 1) it is a follower's
// flat gradient arena (engine precision, float32) plus enough addressing
// for the leader to aggregate deterministically and reject stale frames;
// downstream (Rank 0) it is the leader's rank-ordered mean of the step's
// gradients, which every worker hands to the same optimizer step.
type GradFrame struct {
	// Rank is the sender's cluster rank: ≥ 1 for a follower, 0 for the
	// leader (whose own gradient is folded first). The leader reduces
	// frames in ascending rank order — float addition is not associative,
	// so the order is part of the trajectory's determinism contract.
	Rank int
	// Epoch is the follower connection's session epoch (see Hello.Epoch):
	// it bumps on every reconnect, and either side drops frames whose
	// epoch does not match the connection that delivered them — a
	// follower that dropped mid-epoch can never splice a stale gradient
	// into a post-rejoin step.
	Epoch uint64
	// Step is the global train step this gradient contributes to: the
	// sender's step counter plus one. The leader drops a frame for any
	// other step as stale; a follower that reads a mean for any other
	// step has missed one and rejoins through the full sync.
	Step int64
	// BatchN is, upstream, the minibatch size behind the gradient, and
	// downstream the number of workers folded into the mean. 0 marks a
	// "pass" frame: a follower whose replay ring cannot form a minibatch
	// yet (it keeps the leader's collect from stalling, contributing
	// nothing to the reduction), or a round in which no worker had a
	// gradient and nobody steps.
	BatchN int
	// Loss is the sender's minibatch loss; downstream the worker-mean,
	// which every worker folds into its telemetry EWMAs.
	Loss float64
	// Grads is the flat gradient arena (len == the model's NumParams);
	// nil on a pass frame.
	Grads []float32
}

// ParamBcast is the full sync a follower gets when it joins or rejoins:
// everything a worker that steps for itself needs to continue the
// leader's trajectory bit for bit. It is not part of the steady-state
// round.
type ParamBcast struct {
	// Step is the leader's global train step; the follower sets its
	// counter to it, keeping hard-update phase and the divergence-scan
	// schedule aligned cluster-wide.
	Step int64
	// Sync marks a full sync. Every ParamBcast this version sends is
	// one; a follower ignores one that is not.
	Sync bool
	// Loss is the leader's loss EWMA (telemetry continues from it).
	Loss float64
	// AdamStep is the optimizer's own step count — the t of the bias
	// correction. It differs from Step after a checkpoint restore, which
	// starts the optimizer afresh.
	AdamStep int64
	// Params and Target are the online and target networks' flat arenas.
	Params []float32
	Target []float32
	// M and V are Adam's first and second moments, aligned with Params;
	// both nil while the optimizer has not stepped.
	M []float32
	V []float32
}

// Envelope wraps a message with its type for transport.
type Envelope struct {
	Type           MsgType
	Hello          *Hello
	Indicators     *Indicators
	Action         *Action
	Ack            *Ack
	WorkloadChange *WorkloadChange
	Heartbeat      *Heartbeat
	GradFrame      *GradFrame
	ParamBcast     *ParamBcast
}

// DiffEncoder produces differential Indicators messages: it remembers the
// previous tick's values and emits only changed slots. "We use a
// differential communication protocol designed to only send out a
// performance indicator when its data is different from the value of the
// previous sampling tick" (§3.3).
type DiffEncoder struct {
	nodeID int
	prev   []float64
	first  bool
}

// NewDiffEncoder creates an encoder for a node reporting numPIs values.
func NewDiffEncoder(nodeID, numPIs int) *DiffEncoder {
	return &DiffEncoder{nodeID: nodeID, prev: make([]float64, numPIs), first: true}
}

// Encode builds the differential message for this tick's full PI vector.
func (d *DiffEncoder) Encode(tick int64, pis []float64) (*Indicators, error) {
	msg := new(Indicators)
	if err := d.EncodeInto(msg, tick, pis); err != nil {
		return nil, err
	}
	return msg, nil
}

// EncodeInto is Encode into a message the caller owns, reusing the
// capacity of its Indices and Values; Epoch is left for the caller.
func (d *DiffEncoder) EncodeInto(msg *Indicators, tick int64, pis []float64) error {
	if len(pis) != len(d.prev) {
		return fmt.Errorf("wire: diff encoder got %d PIs, want %d", len(pis), len(d.prev))
	}
	if cap(msg.Indices) < len(pis) || cap(msg.Values) < len(pis) {
		// Room for a full vector up front: no append growth, ever.
		msg.Indices = make([]int, 0, len(pis))
		msg.Values = make([]float64, 0, len(pis))
	}
	msg.NodeID, msg.Tick = d.nodeID, tick
	msg.Indices, msg.Values = msg.Indices[:0], msg.Values[:0]
	for i, v := range pis {
		if d.first || v != d.prev[i] {
			msg.Indices = append(msg.Indices, i)
			msg.Values = append(msg.Values, v)
		}
	}
	copy(d.prev, pis)
	d.first = false
	return nil
}

// DiffDecoder reconstructs full PI vectors from differential messages.
type DiffDecoder struct {
	cur []float64
}

// NewDiffDecoder creates a decoder for numPIs values.
func NewDiffDecoder(numPIs int) *DiffDecoder {
	return &DiffDecoder{cur: make([]float64, numPIs)}
}

// Merge applies a differential message to the decoder's vector. A
// message that fails validation leaves the vector untouched.
func (d *DiffDecoder) Merge(msg *Indicators) error {
	if len(msg.Indices) != len(msg.Values) {
		return fmt.Errorf("wire: indices/values length mismatch")
	}
	for _, idx := range msg.Indices {
		if idx < 0 || idx >= len(d.cur) {
			return fmt.Errorf("wire: PI index %d out of range", idx)
		}
	}
	for k, idx := range msg.Indices {
		d.cur[idx] = msg.Values[k]
	}
	return nil
}

// Current returns the decoder's full vector as of the last Merge. It is
// the decoder's own storage: read-only, and valid until the next Merge.
func (d *DiffDecoder) Current() []float64 { return d.cur }

// Apply merges a differential message and returns a copy of the full
// vector.
func (d *DiffDecoder) Apply(msg *Indicators) ([]float64, error) {
	if err := d.Merge(msg); err != nil {
		return nil, err
	}
	return append([]float64(nil), d.cur...), nil
}
