package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

const testMagic = "WIRETEST"

// Byte writes and reads one byte: the tests' way to put the fields after
// it at odd offsets.
func (w *FileWriter) Byte(v byte) {
	w.room(1)
	w.buf = append(w.buf, v)
}

func (r *FileReader) Byte() byte { return r.next(1)[0] }

// writeTestFile writes a body that crosses several buffer boundaries at
// odd offsets: a byte, then float32, u64 and float64 runs.
func writeTestFile(t *testing.T, w io.Writer, f32 []float32, f64 []float64) {
	t.Helper()
	fw := NewFileWriter(w, testMagic, 7)
	fw.Byte(0xab)
	fw.Uint64(uint64(len(f32)))
	fw.Float32s(f32)
	fw.Uint32(uint32(len(f64)))
	fw.Float64s(f64)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
}

func readTestFile(t *testing.T, r io.Reader, f32 []float32, f64 []float64) error {
	t.Helper()
	fr, err := NewFileReader(r, testMagic, 7)
	if err != nil {
		return err
	}
	if b, n := fr.Byte(), fr.Uint64(); b != 0xab || n != uint64(len(f32)) {
		t.Fatalf("head = %#x, %d", b, n)
	}
	got32 := make([]float32, len(f32))
	fr.Float32s(got32)
	if n := fr.Uint32(); fr.Err() == nil && n != uint32(len(f64)) {
		t.Fatalf("float64 count = %d", n)
	}
	if want := int64(8 * len(f64)); fr.Err() == nil && fr.Remaining() != want {
		return fmt.Errorf("%d bytes left for %d float64", fr.Remaining(), len(f64))
	}
	got64 := make([]float64, len(f64))
	fr.Float64s(got64)
	if err := fr.Close(); err != nil {
		return err
	}
	for i := range f32 {
		if got32[i] != f32[i] {
			t.Fatalf("float32 %d: %v, want %v", i, got32[i], f32[i])
		}
	}
	for i := range f64 {
		if got64[i] != f64[i] {
			t.Fatalf("float64 %d: %v, want %v", i, got64[i], f64[i])
		}
	}
	return nil
}

func testArenas() ([]float32, []float64) {
	f32 := make([]float32, 2*BulkChunk/4+3)
	for i := range f32 {
		f32[i] = float32(i) * 0.5
	}
	f64 := make([]float64, BulkChunk/8+1)
	for i := range f64 {
		f64[i] = -float64(i) / 3
	}
	return f32, f64
}

// TestFileRoundTripEveryReaderKind: the length of the file comes from
// Len (bytes.Buffer), Seek (os.File) or reading to the end (a plain
// io.Reader), and all three read the same values.
func TestFileRoundTripEveryReaderKind(t *testing.T) {
	f32, f64 := testArenas()
	var buf bytes.Buffer
	writeTestFile(t, &buf, f32, f64)
	file := append([]byte(nil), buf.Bytes()...)

	if err := readTestFile(t, &buf, f32, f64); err != nil {
		t.Fatalf("bytes.Buffer: %v", err)
	}
	if err := readTestFile(t, io.MultiReader(bytes.NewReader(file)), f32, f64); err != nil {
		t.Fatalf("plain reader: %v", err)
	}
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFileAtomic(path, func(w io.Writer) error { _, err := w.Write(file); return err }); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := readTestFile(t, f, f32, f64); err != nil {
		t.Fatalf("os.File: %v", err)
	}
}

// TestFileReaderRefusals: each way a file can be wrong has its own error.
func TestFileReaderRefusals(t *testing.T) {
	f32, f64 := testArenas()
	var buf bytes.Buffer
	writeTestFile(t, &buf, f32, f64)
	file := buf.Bytes()

	if _, err := NewFileReader(bytes.NewReader(file), "WIREelse", 7); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("other magic: %v", err)
	}
	if _, err := NewFileReader(bytes.NewReader(file), testMagic, 8); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("other version: %v", err)
	}
	if _, err := NewFileReader(bytes.NewReader(file[:10]), testMagic, 7); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header cut short: %v", err)
	}
	flipped := append([]byte(nil), file...)
	flipped[len(flipped)/2] ^= 1
	if err := readTestFile(t, bytes.NewReader(flipped), f32, f64); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped bit: %v", err)
	}
	// A body cut short shows in Remaining before anything is read for it.
	if err := readTestFile(t, bytes.NewReader(file[:len(file)-100]), f32, f64); err == nil {
		t.Fatal("file cut short read to its end")
	}
	fr, err := NewFileReader(bytes.NewReader(file), testMagic, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Close(); err == nil {
		t.Fatal("Close accepted a body that was not consumed")
	}
}

// TestWriteFileAtomicKeepsOldFileOnError: a failed save leaves the
// previous file and no temporary behind.
func TestWriteFileAtomicKeepsOldFileOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	failed := errors.New("save failed")
	if err := WriteFileAtomic(path, func(io.Writer) error { return failed }); !errors.Is(err, failed) {
		t.Fatalf("WriteFileAtomic = %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("file now holds %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temporary left behind: %v", err)
	}
}

// TestOverwriteFileInPlace: an overwrite of a longer file leaves exactly
// the bytes written, through the same inode; a failed save reports its
// error.
func TestOverwriteFileInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, bytes.Repeat([]byte("old generation "), 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	write := func(b string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := w.Write([]byte(b)); return err }
	}
	if err := OverwriteFile(path, write("new")); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("file now holds %q", got)
	}
	if !os.SameFile(before, after) {
		t.Fatal("the overwrite replaced the file instead of rewriting it")
	}
	failed := errors.New("save failed")
	if err := OverwriteFile(path, func(io.Writer) error { return failed }); !errors.Is(err, failed) {
		t.Fatalf("OverwriteFile = %v", err)
	}
	if err := OverwriteFile(filepath.Join(path, "not-a-dir"), write("x")); err == nil {
		t.Fatal("OverwriteFile under a regular file succeeded")
	}
}

// TestFileBatchesSameBytes: fields appended through Avail/Commit in
// batches, across buffer boundaries at odd offsets, write the bytes the
// per-field methods write, and Buffered/Discard read them back.
func TestFileBatchesSameBytes(t *testing.T) {
	const n = 3*BulkChunk/8 + 5 // u64 fields spanning several buffers
	var want, got bytes.Buffer
	ref := NewFileWriter(&want, testMagic, 7)
	ref.Byte(1)
	for i := range uint64(n) {
		ref.Uint64(i * 0x9e3779b97f4a7c15)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	fw := NewFileWriter(&got, testMagic, 7)
	fw.Byte(1)
	for i := uint64(0); i < n; {
		b := fw.Avail(8)
		for ; i < n && len(b)+8 <= cap(b); i++ {
			b = binary.LittleEndian.AppendUint64(b, i*0x9e3779b97f4a7c15)
		}
		fw.Commit(b)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("batched fields differ from per-field ones")
	}
	fr, err := NewFileReader(bytes.NewReader(got.Bytes()), testMagic, 7)
	if err != nil {
		t.Fatal(err)
	}
	fr.Byte()
	for i := uint64(0); i < n; {
		b := fr.Buffered(8)
		if b == nil {
			t.Fatalf("Buffered failed at field %d: %v", i, fr.Err())
		}
		k := min(n-i, uint64(len(b)/8))
		for j := range k {
			if v := binary.LittleEndian.Uint64(b[8*j:]); v != (i+j)*0x9e3779b97f4a7c15 {
				t.Fatalf("field %d = %#x", i+j, v)
			}
		}
		fr.Discard(int(8 * k))
		i += k
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	short := bulkFile(nil) // a 13-byte body
	if fr, _ := NewFileReader(bytes.NewReader(short), testMagic, 7); fr.Buffered(16) != nil || !errors.Is(fr.Err(), io.ErrUnexpectedEOF) {
		t.Fatal("Buffered past the end of the body did not report it")
	}
}

// TestFloat32sCheckSeesEveryValue: Float32sCheck hands check every value
// exactly once, in order, for small and bulk runs, and the first error
// it returns is the reader's.
func TestFloat32sCheckSeesEveryValue(t *testing.T) {
	for _, n := range []int{3, BulkChunk/4 - 1, BulkChunk / 4, 2*filePiece/4 + 1001} {
		raw := make([]byte, 4*n)
		rand.New(rand.NewSource(int64(n))).Read(raw)
		file := bulkFile(raw)
		var seen []float32
		fr, err := NewFileReader(bytes.NewReader(file), testMagic, 7)
		if err != nil {
			t.Fatal(err)
		}
		fr.Byte()
		fr.Uint64()
		dst := make([]float32, n)
		fr.Float32sCheck(dst, func(part []float32) error {
			seen = append(seen, part...)
			return nil
		})
		fr.Uint32()
		if err := fr.Close(); err != nil {
			t.Fatalf("%d values: %v", n, err)
		}
		if len(seen) != n {
			t.Fatalf("%d values: check saw %d", n, len(seen))
		}
		for i := range dst {
			if math.Float32bits(seen[i]) != math.Float32bits(dst[i]) {
				t.Fatalf("%d values: check saw %v at %d, read %v", n, seen[i], i, dst[i])
			}
		}

		stop := errors.New("refused")
		fr, _ = NewFileReader(bytes.NewReader(file), testMagic, 7)
		fr.Byte()
		fr.Uint64()
		fr.Float32sCheck(dst, func([]float32) error { return stop })
		if err := fr.Close(); !errors.Is(err, stop) {
			t.Fatalf("%d values: Close after a refused run = %v", n, err)
		}
	}
}

// recordWrites keeps every Write's length and bytes.
type recordWrites struct {
	bytes.Buffer
	lens []int
}

func (r *recordWrites) Write(p []byte) (int, error) {
	r.lens = append(r.lens, len(p))
	return r.Buffer.Write(p)
}

// lyingLen claims the length of the whole file but delivers only a
// prefix of it, as a file cut short under a reader would.
type lyingLen struct {
	*bytes.Reader
	n int
}

func (l lyingLen) Len() int { return l.n }

// bulkFile is the reference encoding of a file holding a byte, a u64,
// one float run and a u32: built by hand from the layout, not by
// FileWriter.
func bulkFile(run []byte) []byte {
	b := append([]byte(testMagic), 7, 0, 0, 0)
	b = append(b, 0xab)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(run)))
	b = append(b, run...)
	b = binary.LittleEndian.AppendUint32(b, 0xc0ffee)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// bulkLengths are run lengths in bytes around the thresholds of the bulk
// path: BulkChunk, where it starts, and filePiece, its unit of I/O.
var bulkLengths = []int{
	BulkChunk - 8, BulkChunk - 4, BulkChunk, BulkChunk + 8,
	filePiece - 8, filePiece - 4, filePiece, filePiece + 4, filePiece + 8,
	2*filePiece + 8*1001, // not a multiple of the piece
}

// TestFileBulkRunsSameBytes: float runs on either side of the bulk
// thresholds write exactly the reference bytes, in Writes no longer than
// a piece, and read back bit for bit — through Len, Seek-less plain and
// byte-at-a-time readers — into the very arena lent, with the header
// bytes the reader buffered ahead consumed first.
func TestFileBulkRunsSameBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, n := range bulkLengths {
		raw := make([]byte, n)
		rng.Read(raw)
		want := bulkFile(raw)
		for _, wide := range []bool{false, true} {
			if n%8 != 0 && wide {
				continue
			}
			name := fmt.Sprintf("%dB/float64=%v", n, wide)
			var rec recordWrites
			fw := NewFileWriter(&rec, testMagic, 7)
			fw.Byte(0xab)
			fw.Uint64(uint64(n))
			f32, f64 := make([]float32, n/4), make([]float64, n/8)
			if wide {
				Float64s(f64, raw)
				fw.Float64s(f64)
			} else {
				Float32s(f32, raw)
				fw.Float32s(f32)
			}
			fw.Uint32(0xc0ffee)
			if err := fw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Bytes(), want) {
				t.Fatalf("%s: file differs from the reference encoding", name)
			}
			for _, l := range rec.lens {
				if l > filePiece {
					t.Fatalf("%s: one Write of %d bytes, piece is %d", name, l, filePiece)
				}
			}
			readers := map[string]func() io.Reader{
				"len":      func() io.Reader { return bytes.NewReader(want) },
				"plain":    func() io.Reader { return io.MultiReader(bytes.NewReader(want)) },
				"one byte": func() io.Reader { return oneByte{bytes.NewReader(want)} },
			}
			for kind, open := range readers {
				fr, err := NewFileReader(open(), testMagic, 7)
				if err != nil {
					t.Fatalf("%s %s: %v", name, kind, err)
				}
				if b, m := fr.Byte(), fr.Uint64(); b != 0xab || m != uint64(n) {
					t.Fatalf("%s %s: head %#x %d", name, kind, b, m)
				}
				if fr.Remaining() != int64(n+4) {
					t.Fatalf("%s %s: %d bytes left before the run", name, kind, fr.Remaining())
				}
				got := make([]byte, n)
				if wide {
					arena, intact := guarded64(n / 8)
					fr.Float64s(arena)
					if !intact() {
						t.Fatalf("%s %s: read wrote outside the arena", name, kind)
					}
					got = AppendFloat64s(got[:0], arena)
				} else {
					arena, intact := guarded(n / 4)
					fr.Float32s(arena)
					if !intact() {
						t.Fatalf("%s %s: read wrote outside the arena", name, kind)
					}
					got = AppendFloat32s(got[:0], arena)
				}
				if v := fr.Uint32(); v != 0xc0ffee {
					t.Fatalf("%s %s: field after the run = %#x", name, kind, v)
				}
				if err := fr.Close(); err != nil {
					t.Fatalf("%s %s: %v", name, kind, err)
				}
				if !bytes.Equal(got, raw) {
					t.Fatalf("%s %s: run read back differs", name, kind)
				}
			}
		}
	}
}

// guarded64 is guarded for a float64 arena.
func guarded64(n int) (arena []float64, intact func() bool) {
	const guard = 8
	sentinel := math.Float64frombits(0x7ff0_dead_beef_0001)
	buf := make([]float64, n+2*guard)
	for i := range buf {
		buf[i] = sentinel
	}
	return buf[guard : guard+n : guard+n], func() bool {
		for i, v := range buf {
			if (i < guard || i >= guard+n) && math.Float64bits(v) != math.Float64bits(sentinel) {
				return false
			}
		}
		return true
	}
}

// TestFileBulkRunRefusals: a bulk run cut short — by a file whose length
// says so, or by a stream that ends before its stated length, inside a
// piece — is io.ErrUnexpectedEOF, and a bit flipped inside a piece is
// ErrChecksum.
func TestFileBulkRunRefusals(t *testing.T) {
	n := 2*filePiece + 8*1001
	raw := make([]byte, n)
	rand.New(rand.NewSource(36)).Read(raw)
	file := bulkFile(raw)
	read := func(r io.Reader) error {
		fr, err := NewFileReader(r, testMagic, 7)
		if err != nil {
			return err
		}
		fr.Byte()
		fr.Uint64()
		fr.Float32s(make([]float32, n/4))
		fr.Uint32()
		return fr.Close()
	}
	cut := 21 + filePiece + filePiece/2 // inside the second piece of the run
	if err := read(bytes.NewReader(file[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("file cut inside a piece: %v", err)
	}
	if err := read(lyingLen{bytes.NewReader(file[:cut]), len(file)}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("stream ending inside a piece: %v", err)
	}
	flipped := append([]byte(nil), file...)
	flipped[cut] ^= 0x20
	if err := read(bytes.NewReader(flipped)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit flipped inside a piece: %v", err)
	}
}

// TestBulkRunDamageEitherHalf: a bit flipped in, or a file cut inside,
// the first or the second half of a bulk run is ErrChecksum or
// io.ErrUnexpectedEOF, whichever way the run is read — the hash of each
// piece runs on the helper goroutine, so a fault must still reach Close
// from either side of the join — and no read leaves the helper running.
func TestBulkRunDamageEitherHalf(t *testing.T) {
	n := 3*filePiece + 8*1001
	raw := make([]byte, n)
	rand.New(rand.NewSource(46)).Read(raw)
	file := bulkFile(raw)
	const head = len(testMagic) + 4 + 1 + 8 // the run's offset in file
	reads := map[string]func(*FileReader){
		"Float32s": func(fr *FileReader) { fr.Float32s(make([]float32, n/4)) },
		"Float32sCheck": func(fr *FileReader) {
			fr.Float32sCheck(make([]float32, n/4), func([]float32) error { return nil })
		},
		"Float64s": func(fr *FileReader) { fr.Float64s(make([]float64, n/8)) },
	}
	before := runtime.NumGoroutine()
	for kind, readRun := range reads {
		read := func(r io.Reader) error {
			fr, err := NewFileReader(r, testMagic, 7)
			if err != nil {
				return err
			}
			fr.Byte()
			fr.Uint64()
			readRun(fr)
			fr.Uint32()
			return fr.Close()
		}
		if err := read(bytes.NewReader(file)); err != nil {
			t.Fatalf("%s: intact file: %v", kind, err)
		}
		for _, at := range []int{n / 4, 3 * n / 4} {
			flipped := append([]byte(nil), file...)
			flipped[head+at] ^= 0x08
			if err := read(bytes.NewReader(flipped)); !errors.Is(err, ErrChecksum) {
				t.Fatalf("%s: bit flipped at %d of %d: %v", kind, at, n, err)
			}
			if err := read(bytes.NewReader(file[:head+at])); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: file cut at %d of %d: %v", kind, at, n, err)
			}
			if err := read(lyingLen{bytes.NewReader(file[:head+at]), len(file)}); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: stream ending at %d of %d: %v", kind, at, n, err)
			}
		}
	}
	settled(t, before)
}

// failAfter is a writer that takes n bytes and then fails every Write.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

// failingReader serves the first n bytes of a file, then fails.
type failingReader struct {
	*bytes.Reader
	n   int
	err error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.n == 0 {
		return 0, f.err
	}
	k, err := f.Reader.Read(p[:min(len(p), f.n)])
	f.n -= k
	return k, err
}

// TestBulkRunIOErrorLeavesNoHasher: a writer or a reader that fails in
// the middle of a bulk run, and a check that refuses a piece there, end
// the run with their error, and the helper goroutine hashing the run is
// gone when the call returns.
func TestBulkRunIOErrorLeavesNoHasher(t *testing.T) {
	n := 3*filePiece + 8*1001
	raw := make([]byte, n)
	rand.New(rand.NewSource(47)).Read(raw)
	f32 := make([]float32, n/4)
	Float32s(f32, raw)
	file := bulkFile(raw)
	broken := errors.New("device gone")
	before := runtime.NumGoroutine()

	for _, at := range []int{filePiece / 2, 2*filePiece + 3} {
		fw := NewFileWriter(&failAfter{n: at, err: broken}, testMagic, 7)
		fw.Byte(0xab)
		fw.Uint64(uint64(n))
		fw.Float32s(f32)
		fw.Uint32(0xc0ffee)
		if err := fw.Close(); !errors.Is(err, broken) {
			t.Fatalf("writer failing at %d: Close = %v", at, err)
		}

		fr, err := NewFileReader(&failingReader{bytes.NewReader(file), at, broken}, testMagic, 7)
		if err != nil {
			t.Fatal(err)
		}
		fr.Byte()
		fr.Uint64()
		fr.Float32s(make([]float32, n/4))
		if err := fr.Close(); !errors.Is(err, broken) {
			t.Fatalf("reader failing at %d: Close = %v", at, err)
		}

		refused := errors.New("refused")
		fr, err = NewFileReader(bytes.NewReader(file), testMagic, 7)
		if err != nil {
			t.Fatal(err)
		}
		fr.Byte()
		fr.Uint64()
		seen := 0
		fr.Float32sCheck(make([]float32, n/4), func(part []float32) error {
			if seen += 4 * len(part); seen > at {
				return refused
			}
			return nil
		})
		if err := fr.Close(); !errors.Is(err, refused) {
			t.Fatalf("check refusing past %d: Close = %v", at, err)
		}
	}
	settled(t, before)
}

// settled fails unless the goroutine count is back to at most want
// within a few seconds.
func settled(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, %d before", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
