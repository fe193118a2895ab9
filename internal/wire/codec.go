package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
)

// MaxFrameBytes bounds a single protocol frame: a defense against
// corrupt length prefixes, and — because nothing in a frame expands when
// decoded — the bound on what one message can make a reader allocate.
const MaxFrameBytes = 16 << 20

const (
	// BulkChunk is how much of a float32 arena a Writer converts and
	// writes, and a Reader reads and converts, at a time where a float
	// slice is not already its wire bytes (slab_other.go): the arenas of
	// GradFrame and ParamBcast then go between the socket and the
	// caller's []float32 through a buffer of this size, never a
	// whole-frame one. It is also the persistence layer's buffer size.
	BulkChunk = 32 << 10
	// maxBulkHead bounds the fields that precede the arenas in a
	// GradFrame or ParamBcast body (at most six 10-byte varints, a bool
	// and the loss).
	maxBulkHead = 96
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
func appendHead(b []byte, env *Envelope) ([]byte, [4][]float32, error) {
	var bulk [4][]float32
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
			b = binary.AppendVarint(b, m.AdamStep)
			bulk = [4][]float32{m.Params, m.Target, m.M, m.V}
			for _, f := range bulk {
				b = binary.AppendUvarint(b, uint64(len(f)))
			}
			return b, bulk, nil
		}
	default:
		return nil, bulk, fmt.Errorf("wire: encode: unknown message type %d", int(env.Type))
	}
	return nil, bulk, fmt.Errorf("wire: encode: %v envelope has no body", env.Type)
}

// bulkLen counts the values in a message's arenas.
func bulkLen(bulk [4][]float32) int {
	n := 0
	for _, f := range bulk {
		n += len(f)
	}
	return n
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
	b = slices.Grow(b, 4*bulkLen(bulk))
	for _, f := range bulk {
		b = AppendFloat32s(b, f)
	}
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
// which never pass through the buffer as a whole: where a float slice is
// already its wire bytes (slab_le.go) the header and the arenas go out as
// they lie, in one vectored write (net.Buffers: one writev on a TCP
// connection); elsewhere they are converted and written BulkChunk bytes
// at a time. Not safe for concurrent use.
type Writer struct {
	w   io.Writer
	buf []byte

	vec   net.Buffers // the vectored write in flight, over vecAt
	vecAt [5][]byte
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
	total := len(b) + 4*bulkLen(bulk)
	if err := finishFrame(b, total); err != nil {
		return 0, err
	}
	switch {
	case total == len(b):
		_, err = w.w.Write(b)
	case littleEndian:
		err = w.writeSlabs(b, bulk)
	default:
		b, err = w.writeChunked(b, bulk)
	}
	w.buf = b[:0]
	if cap(b) > retainBytes {
		w.buf = nil
	}
	return total, err
}

// writeSlabs writes head and, behind it, the arenas as the bytes they
// already are (little-endian targets only), in one vectored write.
func (w *Writer) writeSlabs(head []byte, bulk [4][]float32) error {
	w.vec = append(w.vecAt[:0], head)
	for _, f := range bulk {
		if raw, _ := float32Slab(f); len(raw) > 0 {
			w.vec = append(w.vec, raw)
		}
	}
	_, err := w.vec.WriteTo(w.w)
	w.vec, w.vecAt = nil, [5][]byte{} // keep no reference to the caller's arenas
	return err
}

// writeChunked is the portable bulk path and the reference the slab path
// is tested against: the arenas are converted into the buffer behind
// head and flushed whenever it reaches BulkChunk. It returns the buffer.
func (w *Writer) writeChunked(b []byte, bulk [4][]float32) ([]byte, error) {
	for _, f := range bulk {
		for len(f) > 0 {
			if len(b)+4 > BulkChunk {
				if _, err := w.w.Write(b); err != nil {
					return b, err
				}
				b = b[:0]
			}
			k := min(len(f), (BulkChunk-len(b))/4)
			b = appendFloat32sLoop(b, f[:k])
			f = f[k:]
		}
	}
	_, err := w.w.Write(b)
	return b, err
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
// or ParamBcast is allocated fresh and belongs to the caller — unless
// LendGrads is set, which makes a GradFrame one of the reused kind with
// its arena in storage the caller lends. Arenas are read from the stream
// directly into their final slices.
//
// An error is final: the stream may be mid-frame, so every later Read
// returns the same error. Not safe for concurrent use.
type Reader struct {
	r   io.Reader
	buf []byte // buf[pos:end] is read but not yet consumed
	pos int
	end int
	err error // the first error Read returned

	lend func(n int) []float32 // see LendGrads

	env   Envelope
	hello Hello
	ind   Indicators
	act   Action
	ack   Ack
	wc    WorkloadChange
	hb    Heartbeat
	gf    GradFrame
}

// NewReader returns a Reader on r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// LendGrads makes every following GradFrame decode into storage the
// caller lends instead of a fresh allocation. Once a frame's header has
// been validated — its length against MaxFrameBytes, its value count
// against the bytes the frame has left — lend is called with the count
// n > 0 and returns the slice to fill. Its length must be n: anything
// else refuses the frame (an error, like every other, that ends the
// stream; nothing is reallocated and nothing written). A pass frame
// (n == 0) asks for nothing. The envelope and GradFrame Read returns are
// then the Reader's, valid until the next Read; Grads is the lent slice,
// and whether it was filled completely is the error Read returns.
func (r *Reader) LendGrads(lend func(n int) []float32) { r.lend = lend }

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
	if r.err != nil {
		return nil, r.err
	}
	env, err := r.read()
	r.err = err
	return env, err
}

func (r *Reader) read() (*Envelope, error) {
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
	// Fresh and the caller's, unless a GradFrame's arena is lent: then
	// the frame is the Reader's too, like the small messages.
	env, lent := &r.env, typ == MsgGradFrame && r.lend != nil
	if !lent {
		env = new(Envelope)
	}
	*env = Envelope{Type: typ}
	var counts [4]uint64
	var arenas [4]*[]float32
	if typ == MsgGradFrame {
		m := &r.gf
		if !lent {
			m = new(GradFrame)
		}
		*m = GradFrame{Rank: d.int(), Epoch: d.uvarint(), Step: d.varint(), BatchN: d.int(), Loss: d.float64()}
		counts[0] = d.uvarint()
		env.GradFrame, arenas[0] = m, &m.Grads
	} else {
		m := &ParamBcast{Step: d.varint(), Sync: d.bool(), Loss: d.float64(), AdamStep: d.varint()}
		arenas = [4]*[]float32{&m.Params, &m.Target, &m.M, &m.V}
		for i := range counts {
			counts[i] = d.uvarint()
		}
		env.ParamBcast = m
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w (%v)", d.err, typ)
	}
	fields := len(head) - len(d.b)
	r.consume(fields)
	rest, claimed := uint64(n-fields), uint64(0)
	for _, c := range counts {
		claimed += min(c, rest/4+1) // a count the frame cannot hold, capped: the sum cannot overflow
	}
	if 4*claimed != rest {
		return nil, fmt.Errorf("wire: decode: %v claims %d values in %d bytes", typ, counts, rest)
	}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		var dst []float32
		if lent {
			if dst = r.lend(int(c)); len(dst) != int(c) {
				return nil, fmt.Errorf("wire: decode: %v carries %d values, the lent arena holds %d", typ, c, len(dst))
			}
		} else {
			dst = make([]float32, c)
		}
		*arenas[i] = dst
		if littleEndian {
			err = r.readSlab(dst)
		} else {
			err = r.readChunked(dst)
		}
		if err != nil {
			return nil, err
		}
	}
	return env, nil
}

// readSlab fills dst from the stream as the bytes it already is
// (little-endian targets only): what the head read left in the buffer
// first, the rest straight from the connection.
func (r *Reader) readSlab(dst []float32) error {
	raw, _ := float32Slab(dst)
	k := copy(raw, r.buf[r.pos:r.end])
	r.consume(k)
	_, err := io.ReadFull(r.r, raw[k:])
	return unexpectedEOF(err)
}

// readChunked is the portable way to fill dst, and the reference
// readSlab is tested against: BulkChunk bytes at a time through the
// buffer, converted element by element.
func (r *Reader) readChunked(dst []float32) error {
	for len(dst) > 0 {
		chunk, err := r.need(min(4*len(dst), BulkChunk))
		if err != nil {
			return unexpectedEOF(err)
		}
		float32sLoop(dst[:len(chunk)/4], chunk)
		dst = dst[len(chunk)/4:]
		r.consume(len(chunk))
	}
	return nil
}

// unexpectedEOF maps an end of stream past a frame's header to
// io.ErrUnexpectedEOF: the header promised more.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
