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
// memory is already the bytes the format defines, so it is hashed and
// written in filePiece pieces straight from the caller's arena, and read
// back by filling the arena a piece at a time and hashing what landed.
// Each piece is hashed while it is still in cache from the copy. A table
// of small fields can skip the per-field calls too: FileWriter.Avail
// lends the buffer's free space to append a batch in place, and
// FileReader.Buffered lends the unread bytes to decode one.

// Errors a FileReader reports; callers test them with errors.Is.
var (
	ErrBadMagic   = errors.New("wire: bad file magic")
	ErrBadVersion = errors.New("wire: unsupported file format version")
	ErrChecksum   = errors.New("wire: file checksum mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// filePiece is the unit of a bulk float run: L2-sized, so the checksum
// pass over a piece reads it from cache after the read or before the
// write that moves it.
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
// the caller's memory, one filePiece per Write.
func (w *FileWriter) bulk(b []byte) {
	w.flush()
	for len(b) > 0 {
		p := b[:min(len(b), filePiece)]
		w.write(p)
		b = b[len(p):]
	}
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
// straight from the file one filePiece at a time, each piece hashed once
// it has landed. It refuses a run longer than the file has left before
// it reads any of it.
func (r *FileReader) bulk(b []byte) {
	if r.err != nil {
		return
	}
	if int64(len(b)) > r.Remaining() {
		r.err = io.ErrUnexpectedEOF // the body ends inside the run
		return
	}
	n := copy(b, r.buf[r.pos:r.end])
	r.pos += n
	b = b[n:]
	for len(b) > 0 {
		p := b[:min(len(b), filePiece)]
		if _, err := io.ReadFull(r.r, p); err != nil {
			r.err = unexpectedEOF(err)
			return
		}
		r.sum = crc32.Update(r.sum, castagnoli, p)
		r.left -= int64(len(p))
		b = b[len(p):]
	}
}

// Float32s fills dst with the next len(dst) raw float32 values: a run of
// at least BulkChunk bytes straight into dst on a little-endian target,
// otherwise converted out of the buffer.
func (r *FileReader) Float32s(dst []float32) { r.Float32sCheck(dst, nil) }

// Float32sCheck is Float32s that hands check each part of dst as soon as
// it has landed: a bulk run is read a filePiece at a time, so each piece
// is checked while it is still in cache from its checksum pass. The
// first error check returns stops the read and becomes the reader's
// error. A nil check checks nothing.
func (r *FileReader) Float32sCheck(dst []float32, check func([]float32) error) {
	_, le := float32Slab(dst)
	bulk := le && 4*len(dst) >= BulkChunk
	for r.err == nil && len(dst) > 0 {
		var part []float32
		if bulk {
			part = dst[:min(len(dst), filePiece/4)]
			b, _ := float32Slab(part)
			r.bulk(b)
		} else {
			if r.end-r.pos < 4 && !r.fill(4) {
				return
			}
			part = dst[:min(len(dst), (r.end-r.pos)/4)]
			Float32s(part, r.buf[r.pos:])
			r.pos += 4 * len(part)
		}
		if r.err == nil && check != nil {
			r.err = check(part)
		}
		dst = dst[len(part):]
	}
}

// Float64s is Float32s for float64 values.
func (r *FileReader) Float64s(dst []float64) {
	if b, ok := float64Slab(dst); ok && len(b) >= BulkChunk {
		r.bulk(b)
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
