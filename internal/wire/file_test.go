package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

const testMagic = "WIRETEST"

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
