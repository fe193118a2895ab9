package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Checkpoint files. internal/nn and internal/replay persist through the
// primitives the protocol uses — fixed little-endian integers and raw
// float bits — framed for a file instead of a socket:
//
//	file := magic (8 bytes) | u32 version | body | u32 CRC-32C of all before it
//
// Every integer is fixed-width, so the exact length of a file follows
// from the counts in its header and a loader can compare that length
// with Remaining before it allocates anything. There is no compression:
// a format whose decoded size is its file size needs no other allocation
// bound, and deflating the floats cost more time than everything else in
// a save or a load together (PERF.md, "Negative results").
//
// Fields go through a BulkChunk buffer. A float run of at least
// BulkChunk bytes on a little-endian target skips it: the run's own
// memory is already the bytes the format defines, so it is written in
// filePiece pieces straight from the caller's arena, and read back by
// filling the arena a piece at a time. Such a run is hashed on a second
// core: a helper goroutine computes the CRC-32C of the run, or of each
// piece as it lands, while the write or read system calls move the
// bytes, and is joined before the next field, error or not. The bytes
// and the trailer are the same as hashing in line. A table of small
// fields can skip the per-field calls too: FileWriter.Avail lends the
// buffer's free space to append a batch in place, and
// FileReader.Buffered lends the unread bytes to decode one.

// Errors a FileReader reports; callers test them with errors.Is.
var (
	ErrBadMagic   = errors.New("wire: bad file magic")
	ErrBadVersion = errors.New("wire: unsupported file format version")
	ErrChecksum   = errors.New("wire: file checksum mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// filePiece is the unit of a bulk float run: L2-sized, so a check of a
// piece that has just been read finds it in cache.
const filePiece = 256 << 10

// FileWriter streams one checkpoint file through a BulkChunk buffer that
// is hashed and written each time it fills. The first write error is
// kept and returned by Close.
type FileWriter struct {
	w   io.Writer
	buf []byte
	sum uint32
	err error
}

// NewFileWriter starts a file of the given magic (8 bytes) and version.
func NewFileWriter(w io.Writer, magic string, version uint32) *FileWriter {
	fw := &FileWriter{w: w, buf: make([]byte, 0, BulkChunk)}
	fw.buf = append(fw.buf, magic...)
	fw.Uint32(version)
	return fw
}

// room flushes the buffer unless n more bytes fit.
func (w *FileWriter) room(n int) {
	if len(w.buf)+n > BulkChunk {
		w.flush()
	}
}

// flush writes what is buffered and empties the buffer.
func (w *FileWriter) flush() {
	w.write(w.buf)
	w.buf = w.buf[:0]
}

// write hashes b and hands it to the underlying writer.
func (w *FileWriter) write(b []byte) {
	w.sum = crc32.Update(w.sum, castagnoli, b)
	if w.err == nil && len(b) > 0 {
		_, w.err = w.w.Write(b)
	}
}

// bulk writes what is buffered, then the bytes of an arena straight from
// the caller's memory, one filePiece per Write, while a helper goroutine
// hashes the run. The helper is joined before bulk returns.
func (w *FileWriter) bulk(b []byte) {
	w.flush()
	h := startHasher(w.sum, 1)
	h.add(b)
	for len(b) > 0 && w.err == nil {
		p := b[:min(len(b), filePiece)]
		_, w.err = w.w.Write(p)
		b = b[len(p):]
	}
	w.sum = h.wait()
}

// Avail returns the buffer's free space as an empty slice with room for
// at least n bytes, flushing first if it has less: a batch of fields is
// appended to it in place, within its capacity, and handed to Commit.
func (w *FileWriter) Avail(n int) []byte {
	w.room(n)
	return w.buf[len(w.buf):len(w.buf)]
}

// Commit takes the bytes appended to the slice Avail returned into the
// file.
func (w *FileWriter) Commit(b []byte) {
	w.buf = w.buf[:len(w.buf)+len(b)]
}

func (w *FileWriter) Uint32(v uint32) {
	w.room(4)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

func (w *FileWriter) Uint64(v uint64) {
	w.room(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Float32s writes the raw bits of f: a run of at least BulkChunk bytes
// straight from f on a little-endian target, otherwise converted into
// the buffer.
func (w *FileWriter) Float32s(f []float32) {
	if b, ok := float32Slab(f); ok && len(b) >= BulkChunk {
		w.bulk(b)
		return
	}
	for len(f) > 0 {
		w.room(4)
		k := min(len(f), (BulkChunk-len(w.buf))/4)
		w.buf = AppendFloat32s(w.buf, f[:k])
		f = f[k:]
	}
}

// Float64s is Float32s for float64 values.
func (w *FileWriter) Float64s(f []float64) {
	if b, ok := float64Slab(f); ok && len(b) >= BulkChunk {
		w.bulk(b)
		return
	}
	for len(f) > 0 {
		w.room(8)
		k := min(len(f), (BulkChunk-len(w.buf))/8)
		w.buf = AppendFloat64s(w.buf, f[:k])
		f = f[k:]
	}
}

// Close writes what is buffered and the checksum trailer. It does not
// close the underlying writer.
func (w *FileWriter) Close() error {
	w.room(4)
	sum := crc32.Update(w.sum, castagnoli, w.buf)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, sum)
	if w.err == nil {
		_, w.err = w.w.Write(w.buf)
	}
	return w.err
}

// FileReader reads a file written by FileWriter through a BulkChunk
// buffer, hashing as it goes. It knows how many bytes the file has left,
// so callers can refuse a count the file cannot back before allocating
// for it. After the first error every read yields zeros; Err and Close
// return that error.
type FileReader struct {
	r        io.Reader
	left     int64 // body bytes not yet read from r; the trailer is not counted
	buf      []byte
	pos, end int
	sum      uint32
	err      error
}

// NewFileReader checks the magic and version at the front of r. The
// file's length comes from r itself (Len or Seek); a reader that has
// neither is read to its end first.
func NewFileReader(r io.Reader, magic string, version uint32) (*FileReader, error) {
	var size int64
	switch v := r.(type) {
	case interface{ Len() int }:
		size = int64(v.Len())
	case io.Seeker:
		cur, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return nil, err
		}
		end, err := v.Seek(0, io.SeekEnd)
		if err != nil {
			return nil, err
		}
		if _, err := v.Seek(cur, io.SeekStart); err != nil {
			return nil, err
		}
		size = end - cur
	default:
		b, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		r, size = bytes.NewReader(b), int64(len(b))
	}
	if size < 4 {
		return nil, io.ErrUnexpectedEOF
	}
	fr := &FileReader{r: r, left: size - 4, buf: make([]byte, BulkChunk)}
	if got := fr.next(len(magic)); fr.err == nil && string(got) != magic {
		return nil, fmt.Errorf("%w %q, want %q", ErrBadMagic, got, magic)
	}
	if got := fr.Uint32(); fr.err == nil && got != version {
		return nil, fmt.Errorf("%w %d, this build reads %d", ErrBadVersion, got, version)
	}
	return fr, fr.err
}

// fill slides the unread bytes to the front of the buffer and reads as
// much of the body as fits, reporting whether at least n bytes are now
// buffered.
func (r *FileReader) fill(n int) bool {
	if r.err != nil {
		return false
	}
	have := copy(r.buf, r.buf[r.pos:r.end])
	r.pos, r.end = 0, have
	m := int(min(int64(len(r.buf)-have), r.left))
	if have+m < n {
		r.err = io.ErrUnexpectedEOF // the body ends inside a field
		return false
	}
	if _, err := io.ReadFull(r.r, r.buf[have:have+m]); err != nil {
		r.err = unexpectedEOF(err)
		return false
	}
	r.sum = crc32.Update(r.sum, castagnoli, r.buf[have:have+m])
	r.left -= int64(m)
	r.end += m
	return true
}

// next returns the next n ≤ 8 bytes, zeros after an error.
func (r *FileReader) next(n int) []byte {
	if r.end-r.pos < n && !r.fill(n) {
		return make([]byte, n)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Buffered returns the unread bytes in the buffer, reading more of the
// body first if fewer than n ≤ BulkChunk are buffered, so a batch of
// fields is decoded in place and handed to Discard. It returns nil after
// an error.
func (r *FileReader) Buffered(n int) []byte {
	if r.end-r.pos < n && !r.fill(n) {
		return nil
	}
	return r.buf[r.pos:r.end]
}

// Discard consumes the first n bytes Buffered returned.
func (r *FileReader) Discard(n int) { r.pos += n }

func (r *FileReader) Uint32() uint32 { return binary.LittleEndian.Uint32(r.next(4)) }
func (r *FileReader) Uint64() uint64 { return binary.LittleEndian.Uint64(r.next(8)) }

// bulk fills the bytes of an arena: first from what is buffered, then
// straight from the file, the run's filePiece-sized pieces one at a time.
// A helper goroutine hashes each piece once it has landed while the next
// is read, and is joined before bulk returns. landed, unless nil, is
// handed each piece's byte range [lo, hi) of b as soon as the piece is
// in; the first error it returns stops the read. bulk refuses a run
// longer than the file has left before it reads any of it.
func (r *FileReader) bulk(b []byte, landed func(lo, hi int) error) {
	if r.err != nil {
		return
	}
	if int64(len(b)) > r.Remaining() {
		r.err = io.ErrUnexpectedEOF // the body ends inside the run
		return
	}
	n := copy(b, r.buf[r.pos:r.end]) // hashed when it was buffered
	r.pos += n
	h := startHasher(r.sum, (len(b)+filePiece-1)/filePiece)
	defer func() { r.sum = h.wait() }()
	for lo := 0; lo < len(b); lo += filePiece {
		hi := min(len(b), lo+filePiece)
		if p := b[max(lo, n):hi]; len(p) > 0 {
			if _, err := io.ReadFull(r.r, p); err != nil {
				r.err = unexpectedEOF(err)
				return
			}
			h.add(p)
			r.left -= int64(len(p))
		}
		if landed != nil {
			if err := landed(lo, hi); err != nil {
				r.err = err
				return
			}
		}
	}
}

// Float32s fills dst with the next len(dst) raw float32 values: a run of
// at least BulkChunk bytes straight into dst on a little-endian target,
// otherwise converted out of the buffer.
func (r *FileReader) Float32s(dst []float32) { r.Float32sCheck(dst, nil) }

// Float32sCheck is Float32s that hands check each part of dst as soon as
// it has landed: a bulk run is read a filePiece at a time, so each piece
// is checked while it is still in cache from the read. The first error
// check returns stops the read and becomes the reader's error. A nil
// check checks nothing.
func (r *FileReader) Float32sCheck(dst []float32, check func([]float32) error) {
	if b, ok := float32Slab(dst); ok && len(b) >= BulkChunk {
		var landed func(lo, hi int) error
		if check != nil {
			landed = func(lo, hi int) error { return check(dst[lo/4 : hi/4]) }
		}
		r.bulk(b, landed)
		return
	}
	for r.err == nil && len(dst) > 0 {
		if r.end-r.pos < 4 && !r.fill(4) {
			return
		}
		part := dst[:min(len(dst), (r.end-r.pos)/4)]
		Float32s(part, r.buf[r.pos:])
		r.pos += 4 * len(part)
		if check != nil {
			r.err = check(part)
		}
		dst = dst[len(part):]
	}
}

// Float64s is Float32s for float64 values.
func (r *FileReader) Float64s(dst []float64) {
	if b, ok := float64Slab(dst); ok && len(b) >= BulkChunk {
		r.bulk(b, nil)
		return
	}
	for len(dst) > 0 {
		if r.end-r.pos < 8 && !r.fill(8) {
			return
		}
		k := min(len(dst), (r.end-r.pos)/8)
		Float64s(dst[:k], r.buf[r.pos:])
		r.pos += 8 * k
		dst = dst[k:]
	}
}

// hasher computes the CRC-32C of a bulk run on a goroutine of its own, so
// the hash of one piece runs beside the read or write that moves the
// next. Pieces are hashed in the order they are added.
type hasher struct {
	pieces chan []byte
	sum    chan uint32
}

// startHasher starts a hasher that continues sum over up to n pieces.
func startHasher(sum uint32, n int) *hasher {
	h := &hasher{pieces: make(chan []byte, n), sum: make(chan uint32, 1)}
	go func() {
		for p := range h.pieces {
			sum = crc32.Update(sum, castagnoli, p)
		}
		h.sum <- sum
	}()
	return h
}

// add queues a piece; it never blocks.
func (h *hasher) add(p []byte) { h.pieces <- p }

// wait returns the sum over every piece added, once the goroutine has
// hashed them all and exited.
func (h *hasher) wait() uint32 {
	close(h.pieces)
	return <-h.sum
}

// Remaining returns how many body bytes have not been consumed yet.
func (r *FileReader) Remaining() int64 { return r.left + int64(r.end-r.pos) }

// Err returns the first read error.
func (r *FileReader) Err() error { return r.err }

// Close verifies that the body was consumed exactly and that the trailer
// matches the checksum of what was read.
func (r *FileReader) Close() error {
	if r.err != nil {
		return r.err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("wire: %d unread bytes before the file checksum", n)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r.r, trailer[:]); err != nil {
		return unexpectedEOF(err)
	}
	if binary.LittleEndian.Uint32(trailer[:]) != r.sum {
		return ErrChecksum
	}
	return nil
}

// OverwriteFile writes a file through save into path in place: an
// existing file is opened without truncation, rewritten from its start
// and cut to the length written, so a save reuses the pages and blocks
// of the file it replaces rather than freeing them and allocating new
// ones. A crash leaves path torn; it is for files in a staging
// directory whose swap is the atomic step.
func OverwriteFile(path string, save func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	err = save(f)
	if err == nil {
		var n int64
		if n, err = f.Seek(0, io.SeekCurrent); err == nil {
			err = f.Truncate(n)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic writes a file through save into path+".tmp" and renames
// it into place, so path holds either the previous file or the whole new
// one.
func WriteFileAtomic(path string, save func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
