package disk

import (
	"math"
	"testing"
	"testing/quick"
)

func hdd(t *testing.T) *Device {
	t.Helper()
	d, err := New(DefaultHDD())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestValidate(t *testing.T) {
	if err := DefaultHDD().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultSSD().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultHDD()
	bad.SeqReadMBps = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero seq read")
	}
	bad2 := DefaultHDD()
	bad2.OverloadQueue = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected error for zero overload queue")
	}
	bad3 := DefaultHDD()
	bad3.RandIOSizeKB = -1
	if err := bad3.Validate(); err == nil {
		t.Fatal("expected error for negative IO size")
	}
	if _, err := New(bad3); err == nil {
		t.Fatal("New must validate")
	}
}

func TestSequentialRatesMatchPaperHardware(t *testing.T) {
	d := hdd(t)
	// 1 MB requests at 113/106 MB/s.
	if got := d.SeqReadIOPS(); math.Abs(got-113) > 1e-9 {
		t.Fatalf("SeqReadIOPS = %v", got)
	}
	if got := d.SeqWriteIOPS(); math.Abs(got-106) > 1e-9 {
		t.Fatalf("SeqWriteIOPS = %v", got)
	}
}

// The paper's causal story (§4.3): random reads are seek-bound and gain
// little from queueing; random writes gain a lot from merging.
func TestReadQueueInsensitiveWriteQueueSensitive(t *testing.T) {
	d := hdd(t)
	readGain := d.RandReadIOPS(200) / d.RandReadIOPS(8)
	writeGain := d.RandWriteIOPS(200) / d.RandWriteIOPS(8)
	if readGain > 1.3 {
		t.Fatalf("random read gains %vx from queueing; should be nearly flat", readGain)
	}
	if writeGain < 1.4 {
		t.Fatalf("random write gains only %vx from queueing; must be substantial", writeGain)
	}
	if writeGain <= readGain {
		t.Fatal("write queue gain must exceed read queue gain")
	}
}

func TestRandIOPSMonotoneInQueue(t *testing.T) {
	d := hdd(t)
	f := func(q1, q2 float64) bool {
		a, b := math.Abs(q1), math.Abs(q2)
		if a > b {
			a, b = b, a
		}
		return d.RandWriteIOPS(b) >= d.RandWriteIOPS(a)-1e-9 &&
			d.RandReadIOPS(b) >= d.RandReadIOPS(a)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeQueueClamped(t *testing.T) {
	d := hdd(t)
	if d.RandReadIOPS(-5) != d.RandReadIOPS(0) {
		t.Fatal("negative queue must clamp to 0")
	}
}

func TestOverloadFactor(t *testing.T) {
	d := hdd(t)
	if d.OverloadFactor(0) != 1 || d.OverloadFactor(d.P.OverloadQueue) != 1 {
		t.Fatal("no penalty at or below the knee")
	}
	f1 := d.OverloadFactor(d.P.OverloadQueue + d.P.OverloadScale)
	if math.Abs(f1-2) > 1e-9 {
		t.Fatalf("one scale past knee must double: %v", f1)
	}
	// Quadratic growth.
	f2 := d.OverloadFactor(d.P.OverloadQueue + 2*d.P.OverloadScale)
	if math.Abs(f2-5) > 1e-9 {
		t.Fatalf("two scales past knee: %v, want 5", f2)
	}
}

// TestInteriorOptimumExists: goodput including the overload penalty must
// peak at an interior queue depth well above the Lustre default (5
// clients × default window 8 = 40 outstanding per server) — this is the
// headroom CAPES exploits — and decline afterwards (congestion collapse).
func TestInteriorOptimumExists(t *testing.T) {
	d := hdd(t)
	bestQ, bestRate := peakWriteQueue(d, 2000)
	if bestQ <= 60 {
		t.Fatalf("optimum queue %v too close to the default operating point", bestQ)
	}
	if bestQ >= 1500 {
		t.Fatalf("optimum queue %v not interior", bestQ)
	}
	defaultRate := d.RandWriteIOPS(40) / d.OverloadFactor(40)
	gain := bestRate / defaultRate
	// The paper reports up to +45% for write-dominated workloads; the
	// device-level headroom must be in that ballpark (the end-to-end gain
	// is further shaped by network and time-sharing).
	if gain < 1.3 || gain > 2.2 {
		t.Fatalf("device-level tuning headroom %vx outside plausible band", gain)
	}
	// Collapse: far past the peak, goodput must fall below the peak.
	deepRate := d.RandWriteIOPS(1900) / d.OverloadFactor(1900)
	if deepRate >= bestRate {
		t.Fatal("no congestion collapse past the optimum")
	}
}

func TestSSDTuningHeadroomIsSmall(t *testing.T) {
	d, err := New(DefaultSSD())
	if err != nil {
		t.Fatal(err)
	}
	_, bestRate := peakWriteQueue(d, 1500)
	defaultRate := d.RandWriteIOPS(40) / d.OverloadFactor(40)
	if bestRate/defaultRate > 1.25 {
		t.Fatalf("SSD headroom %vx; should be small", bestRate/defaultRate)
	}
}

func TestServiceTimeConsistentWithIOPS(t *testing.T) {
	d := hdd(t)
	for _, c := range []Class{RandRead, RandWrite, SeqRead, SeqWrite} {
		st := d.ServiceTime(c, 50)
		iops := d.IOPSAt(c, 50)
		if math.Abs(st*iops-1) > 1e-9 {
			t.Fatalf("class %v: service time %v inconsistent with IOPS %v", c, st, iops)
		}
	}
}

func TestClassHelpers(t *testing.T) {
	if !RandRead.IsRead() || !SeqRead.IsRead() {
		t.Fatal("read classes misclassified")
	}
	if RandWrite.IsRead() || SeqWrite.IsRead() {
		t.Fatal("write classes misclassified")
	}
	p := DefaultHDD()
	if p.BytesPerRequest(RandRead) != 8*1024 {
		t.Fatalf("rand request bytes = %v", p.BytesPerRequest(RandRead))
	}
	if p.BytesPerRequest(SeqWrite) != 1024*1024 {
		t.Fatalf("seq request bytes = %v", p.BytesPerRequest(SeqWrite))
	}
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == "" {
			t.Fatal("class must have a name")
		}
	}
}

func TestIOPSAtPanicsOnUnknownClass(t *testing.T) {
	d := hdd(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.IOPSAt(Class(99), 1)
}

// peakWriteQueue returns the queue depth that maximizes random-write
// goodput including the overload factor — the "true optimum" the device
// model must place in the interior of the tunable range.
func peakWriteQueue(d *Device, maxQ float64) (bestQ, bestRate float64) {
	bestRate = math.Inf(-1)
	for q := 1.0; q <= maxQ; q++ {
		r := d.RandWriteIOPS(q) / d.OverloadFactor(q)
		if r > bestRate {
			bestRate, bestQ = r, q
		}
	}
	return bestQ, bestRate
}
