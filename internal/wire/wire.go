// Package wire implements the CAPES network protocol between Monitoring
// Agents, the Interface Daemon and Control Agents (§3.3) and the cluster
// gradient plane: length-prefixed binary frames over TCP, with the
// bandwidth optimization the paper calls out — a differential encoding
// that only transmits performance indicators whose values changed since
// the previous sampling tick.
//
// Wire format (protocol version 4), one frame per message:
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
//	ParamBcast     varint Step | bool Sync | f64 Loss | uvarint np | uvarint nt | np × f32 | nt × f32
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
// streams and are not understood.
const ProtoVersion = 4

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

// GradFrame is one follower's gradient contribution to one global train
// step of a data-parallel cluster session: the follower's flat gradient
// arena (engine precision, float32) plus enough addressing for the
// leader to aggregate deterministically and reject stale frames.
type GradFrame struct {
	// Rank is the follower's fixed cluster rank (≥ 1; the leader's own
	// local gradient is rank 0). The leader reduces frames in ascending
	// rank order — float addition is not associative, so the order is
	// part of the trajectory's determinism contract.
	Rank int
	// Epoch is the follower connection's session epoch (see Hello.Epoch):
	// it bumps on every reconnect, and the leader drops frames whose
	// epoch does not match the connection that delivered them — a
	// follower that dropped mid-epoch can never splice a stale gradient
	// into a post-rejoin step.
	Epoch uint64
	// Step is the global train step this gradient contributes to: the
	// leader's post-apply step counter plus one. Frames for any other
	// step are dropped as stale.
	Step int64
	// BatchN is the minibatch size behind the gradient; 0 marks a "pass"
	// frame from a follower whose replay ring cannot form a minibatch
	// yet (it keeps the leader's collect from stalling, contributing
	// nothing to the reduction).
	BatchN int
	// Loss is the follower's minibatch loss; the leader folds the
	// worker-mean loss into its telemetry EWMAs.
	Loss float64
	// Grads is the flat gradient arena (len == the model's NumParams);
	// nil on a pass frame.
	Grads []float32
}

// ParamBcast carries the leader's post-step parameters down to
// followers. A steady-state broadcast carries only the online arena —
// followers replicate the target-network update rule locally, bit for
// bit. A sync broadcast (Sync == true, sent as the welcome on join and
// rejoin) additionally carries the target arena and is the only way a
// follower that missed steps can resume: its locally replicated θ⁻ is
// stale the moment a broadcast gap appears.
type ParamBcast struct {
	// Step is the leader's post-apply global train step; followers set
	// their step counter to it, keeping hard-update phase and the
	// divergence-scan schedule aligned cluster-wide.
	Step int64
	// Sync marks a full welcome sync (Target present, counters
	// authoritative) rather than a steady-state delta.
	Sync bool
	// Loss is the worker-mean minibatch loss of the step (telemetry).
	Loss float64
	// Params is the online network's flat parameter arena.
	Params []float32
	// Target is the target network's flat arena; nil unless Sync.
	Target []float32
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
