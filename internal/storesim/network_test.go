package storesim

import (
	"math"
	"testing"
)

func fabric() *netFabric { return &netFabric{p: evalNet} }

func TestAdmitUnderCapacityPassesThrough(t *testing.T) {
	f := fabric()
	scale := f.admit([]float64{10e6, 20e6, 0})
	for i, s := range scale {
		if s != 1 {
			t.Fatalf("scale[%d] = %v, want 1 under capacity", i, s)
		}
	}
	if f.lastUtilization <= 0 || f.lastUtilization > 0.1 {
		t.Fatalf("utilization = %v", f.lastUtilization)
	}
}

func TestAdmitPerLinkCap(t *testing.T) {
	f := fabric()
	// One client asks for 2 GB/s over a 117 MB/s link.
	scale := f.admit([]float64{2e9})
	granted := 2e9 * scale[0]
	if math.Abs(granted-117e6) > 1 {
		t.Fatalf("granted %v, want link cap 117e6", granted)
	}
}

func TestAdmitAggregateCap(t *testing.T) {
	f := fabric()
	// Six clients at full link speed = 702 MB/s > 500 MB/s aggregate.
	want := []float64{117e6, 117e6, 117e6, 117e6, 117e6, 117e6}
	scale := f.admit(want)
	var total float64
	for i, w := range want {
		total += w * scale[i]
	}
	if math.Abs(total-500e6) > 1 {
		t.Fatalf("granted total %v, want aggregate cap 500e6", total)
	}
	if math.Abs(f.lastUtilization-1) > 1e-9 {
		t.Fatalf("utilization = %v, want 1", f.lastUtilization)
	}
}

func TestPingGrowsWithUtilization(t *testing.T) {
	f := fabric()
	f.admit([]float64{1e6})
	idle := f.pingMs()
	f.admit([]float64{117e6, 117e6, 117e6, 117e6})
	busy := f.pingMs()
	if busy <= idle {
		t.Fatalf("ping did not grow with load: idle %v, busy %v", idle, busy)
	}
	if idle < f.p.basePingMs {
		t.Fatalf("idle ping %v below base", idle)
	}
}

func TestPingCapped(t *testing.T) {
	p := evalNet
	p.queuePingMs = 1e6 // absurd queueing factor
	f := &netFabric{p: p}
	f.admit([]float64{117e6, 117e6, 117e6, 117e6, 117e6, 117e6})
	if got := f.pingMs(); got != p.maxPingMs {
		t.Fatalf("ping = %v, want cap %v", got, p.maxPingMs)
	}
}

func TestAdmitZeroAndNegativeDemand(t *testing.T) {
	f := fabric()
	scale := f.admit([]float64{0, -5, 10e6})
	if scale[0] != 1 || scale[1] != 1 || scale[2] != 1 {
		t.Fatalf("scale = %v", scale)
	}
}

// Property: granted bytes never exceed demand, link cap, or aggregate.
func TestAdmitInvariants(t *testing.T) {
	f := fabric()
	demands := [][]float64{
		{1e6, 5e9, 0},
		{117e6, 117e6, 117e6, 117e6, 117e6},
		{400e6},
		{1, 2, 3},
	}
	for _, want := range demands {
		scale := f.admit(want)
		var total float64
		for i, w := range want {
			if scale[i] < 0 || scale[i] > 1+1e-12 {
				t.Fatalf("scale out of range: %v", scale[i])
			}
			g := w * scale[i]
			if g > f.p.clientLinkMBps*1e6+1 {
				t.Fatalf("granted %v exceeds link cap", g)
			}
			if g > 0 {
				total += g
			}
		}
		if total > f.p.aggregateMBps*1e6+1 {
			t.Fatalf("granted total %v exceeds aggregate cap", total)
		}
	}
}
