package workload

import (
	"math"
	"testing"

	"capes/internal/disk"
)

func TestRandRWRatios(t *testing.T) {
	for _, tc := range []struct{ r, w int }{{9, 1}, {4, 1}, {1, 1}, {1, 4}, {1, 9}} {
		g := NewRandRW(tc.r, tc.w, 1)
		var read, write float64
		for tick := int64(0); tick < 500; tick++ {
			for c := 0; c < 5; c++ {
				d := g.Demand(tick, c)
				read += d.Bytes[disk.RandRead]
				write += d.Bytes[disk.RandWrite]
				if d.Bytes[disk.SeqRead] != 0 || d.Bytes[disk.SeqWrite] != 0 {
					t.Fatal("randrw must not emit sequential demand")
				}
				if d.MetadataOps != 0 {
					t.Fatal("randrw must not emit metadata ops")
				}
			}
		}
		gotRatio := read / write
		wantRatio := float64(tc.r) / float64(tc.w)
		if math.Abs(gotRatio-wantRatio)/wantRatio > 0.02 {
			t.Fatalf("%s: read/write ratio %v, want %v", g.Name(), gotRatio, wantRatio)
		}
	}
}

func TestRandRWName(t *testing.T) {
	if got := NewRandRW(1, 9, 1).Name(); got != "randrw-1:9" {
		t.Fatalf("Name = %q", got)
	}
}

func TestRandRWNoiseIsReproducible(t *testing.T) {
	a, b := NewRandRW(1, 1, 7), NewRandRW(1, 1, 7)
	for tick := int64(0); tick < 50; tick++ {
		da, db := a.Demand(tick, 0), b.Demand(tick, 0)
		if da.Bytes[disk.RandRead] != db.Bytes[disk.RandRead] {
			t.Fatal("same seed must reproduce demand")
		}
	}
	c := NewRandRW(1, 1, 8)
	same := true
	for tick := int64(0); tick < 50; tick++ {
		if a.Demand(tick, 0).Bytes[disk.RandRead] != c.Demand(tick, 0).Bytes[disk.RandRead] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestRandRWDemandIsNoisyButCentered(t *testing.T) {
	g := NewRandRW(1, 1, 3)
	want := float64(g.Threads) * g.BytesPerSec
	var sum, sumsq float64
	n := 2000
	for i := 0; i < n; i++ {
		tot := total(g.Demand(int64(i), 0))
		sum += tot
		sumsq += tot * tot
	}
	mean := sum / float64(n)
	if math.Abs(mean-want)/want > 0.03 {
		t.Fatalf("mean demand %v, want ≈%v", mean, want)
	}
	if sumsq/float64(n)-mean*mean <= 0 {
		t.Fatal("demand must be noisy")
	}
}

func TestFileserverMix(t *testing.T) {
	g := NewFileserver(32, 2)
	var d Demand
	for tick := int64(0); tick < 1000; tick++ {
		dd := g.Demand(tick, 0)
		for c := disk.Class(0); c < disk.NumClasses; c++ {
			d.Bytes[c] += dd.Bytes[c]
		}
		d.MetadataOps += dd.MetadataOps
	}
	writes := d.Bytes[disk.SeqWrite] + d.Bytes[disk.RandWrite]
	reads := d.Bytes[disk.SeqRead] + d.Bytes[disk.RandRead]
	if writes <= reads {
		t.Fatal("fileserver is write-heavy (create + append vs one read)")
	}
	ratio := writes / reads
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("write:read ratio %v, want ≈2", ratio)
	}
	if d.MetadataOps <= 0 {
		t.Fatal("fileserver must generate metadata ops")
	}
	if g.Name() != "fileserver" {
		t.Fatal("name")
	}
}

func TestFileserverFluctuatesMoreThanRandRW(t *testing.T) {
	fs := NewFileserver(32, 4)
	rr := NewRandRW(1, 1, 4)
	cv := func(f func(int64) float64) float64 {
		var xs []float64
		for i := int64(0); i < 1500; i++ {
			xs = append(xs, f(i))
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		return math.Sqrt(ss/float64(len(xs))) / mean
	}
	cvFS := cv(func(i int64) float64 { return total(fs.Demand(i, 0)) })
	cvRR := cv(func(i int64) float64 { return total(rr.Demand(i, 0)) })
	if cvFS <= cvRR {
		t.Fatalf("fileserver CV %v should exceed randrw CV %v", cvFS, cvRR)
	}
}

func TestSeqWritePure(t *testing.T) {
	g := NewSeqWrite(5, 5)
	d := g.Demand(0, 0)
	if d.Bytes[disk.SeqWrite] <= 0 {
		t.Fatal("no sequential write demand")
	}
	if d.Bytes[disk.RandRead] != 0 || d.Bytes[disk.RandWrite] != 0 || d.Bytes[disk.SeqRead] != 0 {
		t.Fatal("seqwrite must be pure sequential write")
	}
	if d.MetadataOps != 0 {
		t.Fatal("seqwrite has no metadata ops")
	}
	if g.Name() != "seqwrite" {
		t.Fatal("name")
	}
	// 5 streams × 30 MB/s ≈ 150 MB/s per client: enough that 5 clients
	// (750 MB/s) saturate the ~424 MB/s disk array.
	if mean := meanTotal(g, 500); mean < 100e6 || mean > 200e6 {
		t.Fatalf("per-client seqwrite demand %v out of band", mean)
	}
}

func meanTotal(g Generator, n int64) float64 {
	var sum float64
	for i := int64(0); i < n; i++ {
		sum += total(g.Demand(i, 0))
	}
	return sum / float64(n)
}

func TestSwitchingSchedule(t *testing.T) {
	a := &Constant{WorkName: "A", D: Demand{MetadataOps: 1}}
	b := &Constant{WorkName: "B", D: Demand{MetadataOps: 2}}
	s := NewSwitching(100, a, b)
	if s.PhaseName(0) != "A" || s.PhaseName(99) != "A" {
		t.Fatal("phase 0 must be A")
	}
	if s.PhaseName(100) != "B" || s.PhaseName(199) != "B" {
		t.Fatal("phase 1 must be B")
	}
	if s.PhaseName(200) != "A" {
		t.Fatal("must cycle back to A")
	}
	if s.Demand(150, 0).MetadataOps != 2 {
		t.Fatal("demand must come from active phase")
	}
	if !s.SwitchedAt(100) || !s.SwitchedAt(200) {
		t.Fatal("switch boundaries not detected")
	}
	if s.SwitchedAt(0) || s.SwitchedAt(150) {
		t.Fatal("false switch detection")
	}
	if s.Name() != "switching" {
		t.Fatal("name")
	}
}

func TestSwitchingSinglePhaseNeverSwitches(t *testing.T) {
	s := NewSwitching(10, &Constant{})
	if s.SwitchedAt(10) {
		t.Fatal("single-phase schedule must not signal switches")
	}
}

func TestSwitchingValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSwitching(10) },
		func() { NewSwitching(0, &Constant{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Constant emits a fixed demand every tick.
type Constant struct {
	WorkName string
	D        Demand
}

// Name implements Generator.
func (c *Constant) Name() string {
	if c.WorkName == "" {
		return "constant"
	}
	return c.WorkName
}

// Demand implements Generator.
func (c *Constant) Demand(int64, int) Demand { return c.D }

// total returns the total demanded bytes.
func total(d Demand) float64 {
	var t float64
	for _, b := range d.Bytes {
		t += b
	}
	return t
}
