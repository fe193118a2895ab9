package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// MaxFrameBytes bounds a single protocol frame: a defense against
// corrupt length prefixes, and — because nothing in a frame expands when
// decoded — the bound on what one message can make a reader allocate.
const MaxFrameBytes = 16 << 20

const (
	// BulkChunk is how much of a float32 arena a Writer converts and
	// writes, and a Reader reads and converts, at a time: the arenas of
	// GradFrame and ParamBcast go between the socket and the caller's
	// []float32 through a buffer of this size, never a whole-frame one.
	BulkChunk = 32 << 10
	// maxBulkHead bounds the fields that precede the arenas in a
	// GradFrame or ParamBcast body (five 10-byte varints and the loss).
	maxBulkHead = 64
	// retainBytes is the largest buffer a Writer or Reader keeps between
	// messages; one oversized message does not pin its size forever.
	retainBytes = 64 << 10
)

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendFloat64s appends the raw bits of f (no count) in one growth.
// Where memory already holds a float as its little-endian bits
// (slab_le.go) that is one copy of the slab; elsewhere, and as the
// reference the tests hold the copy to, a loop over the elements.
func AppendFloat64s(b []byte, f []float64) []byte {
	if raw, ok := float64Slab(f); ok {
		return append(b, raw...)
	}
	return appendFloat64sLoop(b, f)
}

func appendFloat64sLoop(b []byte, f []float64) []byte {
	b = slices.Grow(b, 8*len(f))
	for _, v := range f {
		b = appendFloat64(b, v)
	}
	return b
}

// AppendFloat32s is AppendFloat64s for float32.
func AppendFloat32s(b []byte, f []float32) []byte {
	if raw, ok := float32Slab(f); ok {
		return append(b, raw...)
	}
	return appendFloat32sLoop(b, f)
}

func appendFloat32sLoop(b []byte, f []float32) []byte {
	off := len(b)
	b = slices.Grow(b, 4*len(f))[:off+4*len(f)]
	for i, v := range f {
		binary.LittleEndian.PutUint32(b[off+4*i:], math.Float32bits(v))
	}
	return b
}

// appendHead appends env's frame header and every field except the
// float32 arenas of the two bulk messages; those it returns, for the
// caller to append (Encode) or stream (Writer). The length prefix is
// left zero until finishFrame knows the total.
func appendHead(b []byte, env *Envelope) ([]byte, [2][]float32, error) {
	var bulk [2][]float32
	b = append(b, 0, 0, 0, 0, byte(env.Type))
	switch env.Type {
	case MsgHello:
		if m := env.Hello; m != nil {
			b = binary.AppendVarint(b, int64(m.Proto))
			b = binary.AppendVarint(b, int64(m.NodeID))
			b = appendString(b, m.Role)
			b = binary.AppendVarint(b, int64(m.NumPIs))
			b = appendString(b, m.Hostname)
			return binary.AppendUvarint(b, m.Epoch), bulk, nil
		}
	case MsgIndicators:
		if m := env.Indicators; m != nil {
			if len(m.Indices) != len(m.Values) {
				return nil, bulk, fmt.Errorf("wire: encode: indicators carry %d indices, %d values", len(m.Indices), len(m.Values))
			}
			b = binary.AppendVarint(b, int64(m.NodeID))
			b = binary.AppendVarint(b, m.Tick)
			b = binary.AppendUvarint(b, m.Epoch)
			b = binary.AppendUvarint(b, uint64(len(m.Indices)))
			b = slices.Grow(b, (binary.MaxVarintLen64+8)*len(m.Indices))
			prev := 0
			for _, idx := range m.Indices {
				b = binary.AppendVarint(b, int64(idx-prev))
				prev = idx
			}
			return AppendFloat64s(b, m.Values), bulk, nil
		}
	case MsgAction:
		if m := env.Action; m != nil {
			b = binary.AppendVarint(b, m.Tick)
			b = binary.AppendVarint(b, int64(m.ID))
			b = binary.AppendUvarint(b, uint64(len(m.Values)))
			return AppendFloat64s(b, m.Values), bulk, nil
		}
	case MsgAck:
		if m := env.Ack; m != nil {
			b = binary.AppendVarint(b, int64(m.NodeID))
			b = binary.AppendVarint(b, m.Tick)
			b = appendBool(b, m.OK)
			return appendString(b, m.Error), bulk, nil
		}
	case MsgWorkloadChange:
		if m := env.WorkloadChange; m != nil {
			b = binary.AppendVarint(b, m.Tick)
			return appendString(b, m.Name), bulk, nil
		}
	case MsgHeartbeat:
		if m := env.Heartbeat; m != nil {
			b = binary.AppendVarint(b, int64(m.NodeID))
			return binary.AppendUvarint(b, m.Epoch), bulk, nil
		}
	case MsgGradFrame:
		if m := env.GradFrame; m != nil {
			b = binary.AppendVarint(b, int64(m.Rank))
			b = binary.AppendUvarint(b, m.Epoch)
			b = binary.AppendVarint(b, m.Step)
			b = binary.AppendVarint(b, int64(m.BatchN))
			b = appendFloat64(b, m.Loss)
			bulk[0] = m.Grads
			return binary.AppendUvarint(b, uint64(len(m.Grads))), bulk, nil
		}
	case MsgParamBcast:
		if m := env.ParamBcast; m != nil {
			b = binary.AppendVarint(b, m.Step)
			b = appendBool(b, m.Sync)
			b = appendFloat64(b, m.Loss)
			b = binary.AppendUvarint(b, uint64(len(m.Params)))
			bulk[0], bulk[1] = m.Params, m.Target
			return binary.AppendUvarint(b, uint64(len(m.Target))), bulk, nil
		}
	default:
		return nil, bulk, fmt.Errorf("wire: encode: unknown message type %d", int(env.Type))
	}
	return nil, bulk, fmt.Errorf("wire: encode: %v envelope has no body", env.Type)
}

// finishFrame writes the length prefix of a frame that will be total
// bytes long, prefix included.
func finishFrame(frame []byte, total int) error {
	if total-4 > MaxFrameBytes {
		return fmt.Errorf("wire: encode: %d-byte frame exceeds MaxFrameBytes", total-4)
	}
	binary.BigEndian.PutUint32(frame, uint32(total-4))
	return nil
}

// Encode serializes an envelope and returns the framed bytes.
func Encode(env *Envelope) ([]byte, error) {
	b, bulk, err := appendHead(make([]byte, 0, 64), env)
	if err != nil {
		return nil, err
	}
	b = slices.Grow(b, 4*(len(bulk[0])+len(bulk[1])))
	b = AppendFloat32s(AppendFloat32s(b, bulk[0]), bulk[1])
	if err := finishFrame(b, len(b)); err != nil {
		return nil, err
	}
	return b, nil
}

// WriteMsg frames and writes an envelope to w.
func WriteMsg(w io.Writer, env *Envelope) error {
	buf, err := Encode(env)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// MessageBytes returns the framed wire size of an envelope — the Table 2
// "average message size per client" measurement hook.
func MessageBytes(env *Envelope) (int, error) {
	buf, err := Encode(env)
	return len(buf), err
}

// Writer frames messages onto one connection through a buffer it reuses:
// steady-state writes allocate nothing. A message goes out in a single
// Write call, except for the float32 arenas of GradFrame and ParamBcast,
// which are converted and written BulkChunk bytes at a time straight
// from the caller's slices. Not safe for concurrent use.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write frames and writes env, returning the frame's size in bytes. After
// an error the stream may hold a partial frame and must be abandoned.
func (w *Writer) Write(env *Envelope) (int, error) {
	b, bulk, err := appendHead(w.buf[:0], env)
	if err != nil {
		return 0, err
	}
	total := len(b) + 4*(len(bulk[0])+len(bulk[1]))
	if err := finishFrame(b, total); err != nil {
		return 0, err
	}
	for _, f := range bulk {
		for len(f) > 0 {
			if len(b)+4 > BulkChunk {
				if _, err := w.w.Write(b); err != nil {
					return 0, err
				}
				b = b[:0]
			}
			k := min(len(f), (BulkChunk-len(b))/4)
			b = AppendFloat32s(b, f[:k])
			f = f[k:]
		}
	}
	_, err = w.w.Write(b)
	w.buf = b[:0]
	if cap(b) > retainBytes {
		w.buf = nil
	}
	return total, err
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

var errMalformed = errors.New("wire: decode: truncated or malformed field")

// decoder consumes fields from the front of a frame body. The first
// malformed field latches err and empties b, so callers read a whole
// message and check once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	d.b, d.err = nil, errMalformed
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *decoder) bool() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail()
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

func (d *decoder) float64() float64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// count reads an element count and checks it against the bytes left in
// the frame, at minBytes per element, before the caller allocates.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minBytes) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *decoder) string() string {
	n := d.count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// float64s reads n values into dst's capacity (nil stays nil when n is 0).
func (d *decoder) float64s(dst []float64, n int) []float64 {
	dst = dst[:0]
	if len(d.b) < 8*n {
		d.fail()
		return dst
	}
	dst = slices.Grow(dst, n)[:n]
	Float64s(dst, d.b)
	d.b = d.b[8*n:]
	return dst
}

// Float64s fills dst from the raw bits at the front of src, which holds
// at least 8·len(dst) bytes: the inverse of AppendFloat64s, and like it
// one copy where the layouts agree.
func Float64s(dst []float64, src []byte) {
	if raw, ok := float64Slab(dst); ok {
		copy(raw, src[:len(raw)])
		return
	}
	float64sLoop(dst, src)
}

func float64sLoop(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// Float32s fills dst from the raw bits at the front of src, which holds
// at least 4·len(dst) bytes: the inverse of AppendFloat32s.
func Float32s(dst []float32, src []byte) {
	if raw, ok := float32Slab(dst); ok {
		copy(raw, src[:len(raw)])
		return
	}
	float32sLoop(dst, src)
}

func float32sLoop(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

func (d *decoder) hello(m *Hello) {
	*m = Hello{Proto: d.int()}
	if m.Proto != ProtoVersion {
		// Another version's layout: only the leading field is common
		// ground, and it is all the receiver needs to refuse the peer.
		d.b = nil
		return
	}
	m.NodeID, m.Role, m.NumPIs = d.int(), d.string(), d.int()
	m.Hostname, m.Epoch = d.string(), d.uvarint()
}

func (d *decoder) indicators(m *Indicators) {
	m.NodeID, m.Tick, m.Epoch = d.int(), d.varint(), d.uvarint()
	n := d.count(1 + 8) // an index delta is at least one byte, a value eight
	m.Indices = slices.Grow(m.Indices[:0], n)
	idx := 0
	for i := 0; i < n; i++ {
		idx += d.int()
		m.Indices = append(m.Indices, idx)
	}
	m.Values = d.float64s(m.Values, n)
}

// Reader reads framed messages from one connection. It never reads past
// the frame it returns, so it can share a stream with ReadMsg.
//
// The envelope Read returns for a Hello, Indicators, Action, Ack,
// WorkloadChange or Heartbeat — and everything it points to — is storage
// the Reader reuses: valid until the next Read, copy what must outlive
// it. Steady-state reads of those messages allocate nothing. A GradFrame
// or ParamBcast is allocated fresh and belongs to the caller; its arenas
// are read BulkChunk bytes at a time directly into their final slices.
// Not safe for concurrent use.
type Reader struct {
	r   io.Reader
	buf []byte // buf[pos:end] is read but not yet consumed
	pos int
	end int

	env   Envelope
	hello Hello
	ind   Indicators
	act   Action
	ack   Ack
	wc    WorkloadChange
	hb    Heartbeat
}

// NewReader returns a Reader on r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadMsg reads one framed envelope from r; the result is the caller's.
func ReadMsg(r io.Reader) (*Envelope, error) {
	return NewReader(r).Read()
}

// need returns the next n unconsumed bytes, reading exactly as many more
// as that takes.
func (r *Reader) need(n int) ([]byte, error) {
	if have := r.end - r.pos; have < n {
		if n > len(r.buf)-r.pos {
			// Make room: slide the unconsumed bytes to the front of a
			// buffer that holds n.
			b := r.buf
			if n > len(b) {
				b = make([]byte, max(n, 512))
			}
			r.end = copy(b, r.buf[r.pos:r.end])
			r.buf, r.pos = b, 0
		}
		m, err := io.ReadFull(r.r, r.buf[r.end:r.pos+n])
		r.end += m
		if err != nil {
			return nil, err
		}
	}
	return r.buf[r.pos : r.pos+n], nil
}

// consume marks n bytes returned by need as used. An oversized buffer
// is dropped once it is empty.
func (r *Reader) consume(n int) {
	if r.pos += n; r.pos == r.end {
		r.pos, r.end = 0, 0
		if len(r.buf) > retainBytes {
			r.buf = nil
		}
	}
}

// Read reads the next message. A clean end of stream between frames is
// io.EOF; one inside a frame is io.ErrUnexpectedEOF.
func (r *Reader) Read() (*Envelope, error) {
	hdr, err := r.need(5)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > MaxFrameBytes {
		return nil, fmt.Errorf("wire: invalid frame length %d", n)
	}
	typ, body := MsgType(hdr[4]), int(n)-1
	if typ < MsgHello || typ > MsgParamBcast {
		return nil, fmt.Errorf("wire: decode: unknown message type %d", int(typ))
	}
	if typ == MsgGradFrame || typ == MsgParamBcast {
		r.consume(5)
		return r.readBulk(typ, body)
	}
	frame, err := r.need(5 + body)
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	d := decoder{b: frame[5:]}
	r.env = Envelope{Type: typ}
	switch typ {
	case MsgHello:
		d.hello(&r.hello)
		r.env.Hello = &r.hello
	case MsgIndicators:
		d.indicators(&r.ind)
		r.env.Indicators = &r.ind
	case MsgAction:
		r.act.Tick, r.act.ID = d.varint(), d.int()
		r.act.Values = d.float64s(r.act.Values, d.count(8))
		r.env.Action = &r.act
	case MsgAck:
		r.ack = Ack{NodeID: d.int(), Tick: d.varint(), OK: d.bool(), Error: d.string()}
		r.env.Ack = &r.ack
	case MsgWorkloadChange:
		r.wc = WorkloadChange{Tick: d.varint(), Name: d.string()}
		r.env.WorkloadChange = &r.wc
	case MsgHeartbeat:
		r.hb = Heartbeat{NodeID: d.int(), Epoch: d.uvarint()}
		r.env.Heartbeat = &r.hb
	}
	r.consume(5 + body)
	if d.err != nil {
		return nil, fmt.Errorf("%w (%v)", d.err, typ)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("wire: decode: %d trailing bytes after %v", len(d.b), typ)
	}
	return &r.env, nil
}

// readBulk reads a GradFrame or ParamBcast whose body is n bytes: the
// leading fields, then the arenas, which must account for the rest of
// the frame exactly.
func (r *Reader) readBulk(typ MsgType, n int) (*Envelope, error) {
	head, err := r.need(min(n, maxBulkHead))
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	d := decoder{b: head}
	env := &Envelope{Type: typ}
	var counts [2]uint64
	var arenas [2]*[]float32
	if typ == MsgGradFrame {
		m := &GradFrame{Rank: d.int(), Epoch: d.uvarint(), Step: d.varint(), BatchN: d.int(), Loss: d.float64()}
		counts[0] = d.uvarint()
		env.GradFrame, arenas[0] = m, &m.Grads
	} else {
		m := &ParamBcast{Step: d.varint(), Sync: d.bool(), Loss: d.float64()}
		counts[0], counts[1] = d.uvarint(), d.uvarint()
		env.ParamBcast, arenas[0], arenas[1] = m, &m.Params, &m.Target
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w (%v)", d.err, typ)
	}
	fields := len(head) - len(d.b)
	r.consume(fields)
	rest := uint64(n - fields)
	if counts[0] > rest/4 || counts[1] > rest/4 || 4*(counts[0]+counts[1]) != rest {
		return nil, fmt.Errorf("wire: decode: %v claims %d+%d values in %d bytes", typ, counts[0], counts[1], rest)
	}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		dst := make([]float32, c)
		*arenas[i] = dst
		for len(dst) > 0 {
			chunk, err := r.need(min(4*len(dst), BulkChunk))
			if err != nil {
				return nil, unexpectedEOF(err)
			}
			Float32s(dst[:len(chunk)/4], chunk)
			dst = dst[len(chunk)/4:]
			r.consume(len(chunk))
		}
	}
	return env, nil
}

// unexpectedEOF maps an end of stream past a frame's header to
// io.ErrUnexpectedEOF: the header promised more.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
