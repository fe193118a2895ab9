package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"capes/internal/tensor"
	"capes/internal/wire"
)

// Golden, determinism and hostile-input tests for the checkpoint format
// (checkpoint.go). Tampering tests patch a header field of a valid
// checkpoint in place and re-seal the checksum, so the check under test —
// not the CRC — is what has to refuse the file.

// Header field offsets, from the layout table in checkpoint.go.
const (
	offVersion    = 8
	offPrecision  = 12
	offActivation = 16
	offLayers     = 20
	offParams     = 24
	offWidths     = 32
)

func checkpointBytes[E tensor.Element](tb testing.TB, m *MLP[E]) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// reseal recomputes the checksum trailer of a tampered checkpoint.
func reseal(b []byte) []byte {
	body := b[:len(b)-4]
	sum := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], sum)
}

// patched returns a resealed copy of b with the u32 at off replaced.
func patched(b []byte, off int, v uint32) []byte {
	c := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(c[off:], v)
	return reseal(c)
}

// tinyModel is the 3-4-2 ReLU network of the golden tests, parameter i
// set to i/4 − 1 so every value is exact at both precisions.
func tinyModel[E tensor.Element]() *MLP[E] {
	m := NewMLP[E](nil, ActReLU, 3, 4, 2)
	for i := range m.FlatParams() {
		m.FlatParams()[i] = E(float64(i)/4 - 1)
	}
	return m
}

// TestCheckpointGolden pins the byte layout at both precisions: a change
// to it must fail here rather than orphan operators' checkpoints.
func TestCheckpointGolden(t *testing.T) {
	const (
		head = "4341504553444e4e" + "03000000"                // magic, version
		tail = "01000000" + "03000000" + "1a00000000000000" + // activation, L, N
			"03000000" + "04000000" + "02000000" // widths
		want32 = head + "04000000" + tail +
			"000080bf000040bf000000bf000080be000000000000803e0000003f0000403f0000803f0000a03f0000c03f0000e03f00000040" +
			"00001040000020400000304000004040000050400000604000007040000080400000884000009040000098400000a0400000a840" +
			"6b20c03b"
		want64 = head + "08000000" + tail +
			"000000000000f0bf000000000000e8bf000000000000e0bf000000000000d0bf0000000000000000000000000000d03f" +
			"000000000000e03f000000000000e83f000000000000f03f000000000000f43f000000000000f83f000000000000fc3f" +
			"000000000000004000000000000002400000000000000440000000000000064000000000000008400000000000000a40" +
			"0000000000000c400000000000000e400000000000001040000000000000114000000000000012400000000000001340" +
			"00000000000014400000000000001540" +
			"8502f948"
	)
	if got := hex.EncodeToString(checkpointBytes(t, tinyModel[float32]())); got != want32 {
		t.Errorf("float32 checkpoint layout changed:\n got %s\nwant %s", got, want32)
	}
	if got := hex.EncodeToString(checkpointBytes(t, tinyModel[float64]())); got != want64 {
		t.Errorf("float64 checkpoint layout changed:\n got %s\nwant %s", got, want64)
	}
}

// TestCheckpointDeterministic: the same model saves to the same bytes, and
// a loaded model saves to the bytes it was loaded from.
func TestCheckpointDeterministic(t *testing.T) {
	t.Run("float32", func(t *testing.T) { checkpointDeterministic[float32](t) })
	t.Run("float64", func(t *testing.T) { checkpointDeterministic[float64](t) })
}

func checkpointDeterministic[E tensor.Element](t *testing.T) {
	m := NewCAPESNetwork[E](rand.New(rand.NewSource(3)), 90, 5) // arena longer than one buffer
	a, b := checkpointBytes(t, m), checkpointBytes(t, m)
	if !bytes.Equal(a, b) {
		t.Fatal("two saves of one model differ")
	}
	loaded, err := Load[E](bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpointBytes(t, loaded), a) {
		t.Fatal("save → load → save changed the bytes")
	}
}

// TestCheckpointSpecialFloatsBitExact: the arena round-trips as bits at
// both precisions — NaN payloads, −0 and ±Inf included.
func TestCheckpointSpecialFloatsBitExact(t *testing.T) {
	m32 := tinyModel[float32]()
	for i, bits := range []uint32{0x7fc00001, 0xffa5a5a5, 0x80000000, 0x7f800000, 0xff800000, 1} {
		m32.FlatParams()[i] = math.Float32frombits(bits)
	}
	got32, err := Load[float32](bytes.NewReader(checkpointBytes(t, m32)))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m32.FlatParams() {
		if math.Float32bits(got32.FlatParams()[i]) != math.Float32bits(v) {
			t.Fatalf("float32 parameter %d: bits %#x → %#x", i, math.Float32bits(v), math.Float32bits(got32.FlatParams()[i]))
		}
	}
	m64 := tinyModel[float64]()
	for i, bits := range []uint64{0x7ff8000000000001, 0xfff5a5a5a5a5a5a5, 1 << 63, 0x7ff0000000000000, 0xfff0000000000000, 1} {
		m64.FlatParams()[i] = math.Float64frombits(bits)
	}
	got64, err := Load[float64](bytes.NewReader(checkpointBytes(t, m64)))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m64.FlatParams() {
		if math.Float64bits(got64.FlatParams()[i]) != math.Float64bits(v) {
			t.Fatalf("float64 parameter %d: bits %#x → %#x", i, math.Float64bits(v), math.Float64bits(got64.FlatParams()[i]))
		}
	}
}

// TestCheckpointTruncatedEverywhere: every proper prefix of a checkpoint
// fails to load, without a panic.
func TestCheckpointTruncatedEverywhere(t *testing.T) {
	full := checkpointBytes(t, tinyModel[float32]())
	for n := 0; n < len(full); n++ {
		if _, err := Load[float32](bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("checkpoint truncated to %d of %d bytes loaded", n, len(full))
		}
	}
}

// TestCheckpointRejectsUnbackedCounts: a file of a few dozen bytes whose
// header describes a 2³⁰-parameter network is refused on the count,
// before Load builds the network.
func TestCheckpointRejectsUnbackedCounts(t *testing.T) {
	full := checkpointBytes(t, NewMLP[float32](nil, ActTanh, 3, 2))
	huge := append([]byte(nil), full[:offWidths+8]...) // the header alone
	binary.LittleEndian.PutUint32(huge[offWidths:], 1<<15)
	binary.LittleEndian.PutUint32(huge[offWidths+4:], 1<<15)
	binary.LittleEndian.PutUint64(huge[offParams:], 1<<30+1<<15)
	huge = reseal(append(huge, 0, 0, 0, 0))
	for _, file := range [][]byte{huge, huge[:40]} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load[float32](bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("checkpoint whose length cannot back its parameter count loaded")
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("refusing a %d-byte file allocated %d bytes", len(file), grew)
		}
	}
}

// TestCheckpointRejectsMalformed: structurally hostile files under a
// valid checksum, each refused by the validation it aims at; magic and
// version mismatches are told apart.
func TestCheckpointRejectsMalformed(t *testing.T) {
	full := checkpointBytes(t, tinyModel[float32]())
	patchByte := func(off int, v byte) []byte {
		c := append([]byte(nil), full...)
		c[off] = v
		return reseal(c)
	}
	for _, c := range []struct {
		name, want string
		file       []byte
	}{
		{"wrong magic", "bad file magic", patchByte(0, 'X')},
		{"unknown version", "unsupported file format version 2", patchByte(offVersion, 2)},
		{"precision tag", "precision tag 5", patched(full, offPrecision, 5)},
		{"activation", "unknown activation 9", patched(full, offActivation, 9)},
		{"one layer width", "claims 1 layer widths", patched(full, offLayers, 1)},
		{"2^20 layer widths", "claims 1048576 layer widths", patched(full, offLayers, 1<<20)},
		{"zero width", "layer width 0", patched(full, offWidths+4, 0)},
		{"width 2^25", "layer width 33554432", patched(full, offWidths+4, 1<<25)},
		{"parameter count", "layers [3 4 2] need 26", patched(full, offParams, 27)},
		{"wider layer than the arena", "need 32", patched(full, offWidths+4, 5)},
		{"trailing bytes", "file has", append(append([]byte(nil), full...), "tail"...)},
		{"padded and resealed", "file has", reseal(append(append([]byte(nil), full...), 0, 0, 0, 0))},
	} {
		if _, err := Load[float32](bytes.NewReader(c.file)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error with %q", c.name, err, c.want)
		}
	}
	if _, err := Load[float32](bytes.NewReader(patchByte(0, 'X'))); !errors.Is(err, wire.ErrBadMagic) {
		t.Errorf("wrong magic: %v", err)
	}
	if _, err := Load[float32](bytes.NewReader(patchByte(offVersion, 2))); !errors.Is(err, wire.ErrBadVersion) {
		t.Errorf("unknown version: %v", err)
	}
}

// TestCheckpointDetectsFlippedPayloadBit: a damaged weight is still a
// structurally valid checkpoint; the checksum is what catches it.
func TestCheckpointDetectsFlippedPayloadBit(t *testing.T) {
	full := checkpointBytes(t, tinyModel[float64]())
	for off := offWidths + 12; off < len(full)-4; off += 7 {
		bad := append([]byte(nil), full...)
		bad[off] ^= 0x04
		if _, err := Load[float64](bytes.NewReader(bad)); !errors.Is(err, wire.ErrChecksum) {
			t.Fatalf("bit flipped at %d: got %v, want the checksum error", off, err)
		}
	}
}

// sizedCounter counts the bytes read through it; the embedded reader's Len
// still tells wire.NewFileReader the size.
type sizedCounter struct {
	*bytes.Reader
	read int
}

func (c *sizedCounter) Read(p []byte) (int, error) {
	n, err := c.Reader.Read(p)
	c.read += n
	return n, err
}

// TestCheckpointInfoReadsHeaderOnly: answering a header question costs one
// buffer of the file, not the arena.
func TestCheckpointInfoReadsHeaderOnly(t *testing.T) {
	m := NewCAPESNetwork[float32](rand.New(rand.NewSource(4)), 200, 5) // ≈ 326 KB
	c := &sizedCounter{Reader: bytes.NewReader(checkpointBytes(t, m))}
	prec, sizes, err := CheckpointInfo(c)
	if err != nil || prec != "float32" || len(sizes) != 4 || sizes[0] != 200 {
		t.Fatalf("CheckpointInfo = %q, %v, %v", prec, sizes, err)
	}
	if c.read > wire.BulkChunk {
		t.Fatalf("CheckpointInfo read %d bytes of a %d-byte checkpoint", c.read, c.Size())
	}
}

// FuzzCheckpointLoad: arbitrary bytes (under a recomputed checksum) never
// panic the loader or make it allocate beyond a multiple of their length,
// load at no more than one precision — the one their tag names — and
// whatever loads round-trips bit-exactly.
func FuzzCheckpointLoad(f *testing.F) {
	valid32 := checkpointBytes(f, tinyModel[float32]())
	valid64 := checkpointBytes(f, NewCAPESNetwork[float64](rand.New(rand.NewSource(5)), 6, 3))
	badSum := append([]byte(nil), valid32...)
	badSum[len(badSum)-1] ^= 0xff
	f.Add(valid32)
	f.Add(valid64)
	f.Add(valid32[:len(valid32)/2])
	f.Add(patched(valid32, offParams, 1<<30))
	f.Add(badSum)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			// A mutation almost always breaks the checksum first; sealed
			// again, it gets to the structural checks behind it.
			data = reseal(append([]byte(nil), data...))
		}
		m32, err32 := fuzzLoad[float32](t, data)
		m64, err64 := fuzzLoad[float64](t, data)
		switch {
		case err32 == nil && err64 == nil:
			t.Fatal("checkpoint loads at both precisions")
		case err32 == nil:
			fuzzRoundTrip(t, m32, data)
		case err64 == nil:
			fuzzRoundTrip(t, m64, data)
		}
	})
}

// fuzzLoad is Load[E] held to its allocation bound: a network costs its
// parameter and gradient arenas plus a few hundred bytes a layer, and a
// layer costs the file at least 12.
func fuzzLoad[E tensor.Element](t *testing.T, data []byte) (*MLP[E], error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := Load[E](bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10+64*uint64(len(data)) {
		t.Fatalf("loading %d bytes at %s allocated %d", len(data), precisionName[E](), grew)
	}
	return m, err
}

// fuzzRoundTrip: the layout is canonical and the arena raw bits, so a
// loaded model re-saves to exactly its input.
func fuzzRoundTrip[E tensor.Element](t *testing.T, m *MLP[E], data []byte) {
	if prec, _, _ := CheckpointInfo(bytes.NewReader(data)); prec != m.Precision() {
		t.Fatalf("%s checkpoint loaded at %s", prec, m.Precision())
	}
	if !bytes.Equal(checkpointBytes(t, m), data) {
		t.Fatalf("%s checkpoint does not re-save to itself", m.Precision())
	}
}

// rigNetwork is the Q-network of the repo benchmark's checkpoint-cycle
// workload: observation width 500, five actions, 503 505 parameters.
func rigNetwork() *MLP[float32] {
	return NewCAPESNetwork[float32](rand.New(rand.NewSource(1)), 500, 5)
}

// BenchmarkCheckpointSave serialises the benchmark-rig network into a
// reused in-memory buffer; file_B is the checkpoint's size.
func BenchmarkCheckpointSave(b *testing.B) {
	m := rigNetwork()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil { // grows the buffer outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := m.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "file_B")
}

// BenchmarkCheckpointLoad rebuilds the benchmark-rig network from memory.
func BenchmarkCheckpointLoad(b *testing.B) {
	var buf bytes.Buffer
	if err := rigNetwork().Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load[float32](bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "file_B")
}
