package storesim

import (
	"math"
	"testing"

	"capes/internal/disk"
	"capes/internal/workload"
)

func mustCluster(t *testing.T, p Params, gen workload.Generator) *Cluster {
	t.Helper()
	c, err := New(p, gen)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	mods := []func(*Params){
		func(p *Params) { p.Clients = 0 },
		func(p *Params) { p.Servers = 0 },
		func(p *Params) { p.WindowMin = 0 },
		func(p *Params) { p.WindowMax = 0 },
		func(p *Params) { p.WindowDefault = 1000 },
		func(p *Params) { p.RateMin = 0 },
		func(p *Params) { p.RateDefault = 1 },
		func(p *Params) { p.WriteCacheBytes = 0 },
		func(p *Params) { p.Disk.SeqReadMBps = 0 },
	}
	for i, mod := range mods {
		p := DefaultParams()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	if _, err := New(DefaultParams(), nil); err == nil {
		t.Fatal("nil generator must fail")
	}
}

func TestSettersClampToValidRanges(t *testing.T) {
	c := mustCluster(t, DefaultParams(), workload.NewRandRW(1, 1, 1))
	c.SetWindow(0, 0.5)
	if c.Window(0) != c.P.WindowMin {
		t.Fatalf("window = %v", c.Window(0))
	}
	c.SetWindow(0, 1e9)
	if c.Window(0) != c.P.WindowMax {
		t.Fatalf("window = %v", c.Window(0))
	}
	c.SetRateLimit(0, 0)
	if c.RateLimit(0) != c.P.RateMin {
		t.Fatalf("rate = %v", c.RateLimit(0))
	}
	c.SetAllWindows(16)
	c.SetAllRateLimits(1000)
	for i := 0; i < c.P.Clients; i++ {
		if c.Window(i) != 16 || c.RateLimit(i) != 1000 {
			t.Fatal("SetAll did not reach every client")
		}
	}
}

// The headline response surface (§4.3): write-heavy workloads gain
// substantially from a larger congestion window; read-heavy workloads do
// not; pushing far past the optimum collapses throughput.
func TestWindowResponseSurface(t *testing.T) {
	measure := func(readParts, writeParts int, window float64) float64 {
		c := mustCluster(t, DefaultParams(), workload.NewRandRW(readParts, writeParts, 1))
		c.SetAllWindows(window)
		return c.RunSteady(0, 400, 300)
	}
	// Write-heavy 1:9.
	w8 := measure(1, 9, 8)
	w64 := measure(1, 9, 64)
	w256 := measure(1, 9, 256)
	gain := w64/w8 - 1
	if gain < 0.30 || gain > 0.70 {
		t.Fatalf("1:9 gain default→64 = %+.1f%%, want ≈ +45%%", gain*100)
	}
	if w256 >= w8 {
		t.Fatalf("no congestion collapse: w256 %v >= w8 %v", w256, w8)
	}
	// Read-heavy 9:1: insensitive.
	r8 := measure(9, 1, 8)
	r64 := measure(9, 1, 64)
	if rg := r64/r8 - 1; rg > 0.15 {
		t.Fatalf("9:1 gain = %+.1f%%, should be near zero", rg*100)
	}
	// Monotone in write fraction: gain(1:9) > gain(1:1) > gain(9:1).
	m8 := measure(1, 1, 8)
	m64 := measure(1, 1, 64)
	mid := m64/m8 - 1
	if !(gain > mid && mid > r64/r8-1) {
		t.Fatalf("gains not monotone in write fraction: 1:9=%.2f 1:1=%.2f 9:1=%.2f",
			gain, mid, r64/r8-1)
	}
}

func TestSeqWriteSaturatesNearDiskArray(t *testing.T) {
	c := mustCluster(t, DefaultParams(), workload.NewSeqWrite(5, 1))
	tput := c.RunSteady(0, 200, 100)
	// 4 servers × 106 MB/s = 424 MB/s array capacity; network 500 MB/s.
	if tput < 350e6 || tput > 500e6 {
		t.Fatalf("seqwrite throughput %v MB/s out of band", tput/1e6)
	}
}

func TestRateLimitCapsThroughput(t *testing.T) {
	p := DefaultParams()
	c := mustCluster(t, p, workload.NewSeqWrite(5, 1))
	free := c.RunSteady(0, 200, 100)
	c2 := mustCluster(t, p, workload.NewSeqWrite(5, 1))
	c2.SetAllRateLimits(p.RateMin) // 50 req/s × 1 MB × 5 clients = 250 MB/s max
	limited := c2.RunSteady(0, 200, 100)
	if limited >= free*0.8 {
		t.Fatalf("rate limit had no effect: %v vs %v", limited, free)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() float64 {
		c := mustCluster(t, DefaultParams(), workload.NewRandRW(1, 4, 9))
		return c.RunSteady(0, 100, 50)
	}
	if run() != run() {
		t.Fatal("same seed must reproduce exactly")
	}
}

func TestThroughputAccounting(t *testing.T) {
	c := mustCluster(t, DefaultParams(), workload.NewRandRW(1, 1, 2))
	var sum float64
	for tick := int64(0); tick < 100; tick++ {
		c.Tick(tick)
		sum += c.AggregateThroughput()
		if got := c.aggReadBps + c.aggWriteBps; math.Abs(got-c.AggregateThroughput()) > 1e-6 {
			t.Fatal("read+write != total")
		}
		// Per-client throughputs sum to the aggregate.
		var per float64
		for i := 0; i < c.P.Clients; i++ {
			per += c.clients[i].readBps + c.clients[i].writeBps
		}
		if math.Abs(per-c.AggregateThroughput()) > 1e-6 {
			t.Fatal("per-client sum != aggregate")
		}
	}
	if math.Abs(sum-(c.totalReadBytes+c.totalWriteBytes)) > 1 {
		t.Fatalf("TotalBytes %v != summed throughput %v", c.totalReadBytes+c.totalWriteBytes, sum)
	}
}

func TestQueuesRemainNonNegativeAndBounded(t *testing.T) {
	c := mustCluster(t, DefaultParams(), workload.NewFileserver(32, 3))
	c.SetAllWindows(32)
	for tick := int64(0); tick < 300; tick++ {
		c.Tick(tick)
		for s := 0; s < c.P.Servers; s++ {
			q := serverQueueDepth(c, s)
			if q < -1e-9 {
				t.Fatalf("negative queue at server %d: %v", s, q)
			}
			// Bounded by clients × window (plus float slack).
			max := float64(c.P.Clients)*32 + 1
			if q > max {
				t.Fatalf("queue %v exceeds window bound %v", q, max)
			}
		}
	}
}

func TestSheddingWhenDemandExceedsCapacity(t *testing.T) {
	c := mustCluster(t, DefaultParams(), workload.NewRandRW(1, 9, 4))
	c.RunSteady(0, 300, 1)
	if c.shedBytes <= 0 {
		t.Fatal("saturating random workload must shed blocked demand")
	}
	// Dirty bytes stay within the write cache.
	for i := 0; i < c.P.Clients; i++ {
		if d := c.clients[i].backlog[disk.RandWrite] + c.clients[i].backlog[disk.SeqWrite]; d > c.P.WriteCacheBytes+1 {
			t.Fatalf("dirty bytes %v exceed cache %v", d, c.P.WriteCacheBytes)
		}
	}
}

func TestClientPIsShape(t *testing.T) {
	c := mustCluster(t, DefaultParams(), workload.NewRandRW(1, 1, 5))
	c.RunSteady(0, 50, 1)
	pis := c.ClientPIs(0, nil)
	if len(pis) != NumClientPIs {
		t.Fatalf("PIs = %d, want %d", len(pis), NumClientPIs)
	}
	// Window PI reflects the set value, normalized.
	c.SetWindow(0, 64)
	c.Tick(51)
	pis = c.ClientPIs(0, pis)
	if math.Abs(pis[0]-64/c.P.WindowMax) > 1e-9 {
		t.Fatalf("window PI = %v", pis[0])
	}
	// Constant write-cache PI.
	if pis[5] != 1.0 {
		t.Fatalf("write-cache PI = %v", pis[5])
	}
	// All PIs finite and in a sane range.
	for i, v := range pis {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("PI %d is %v", i, v)
		}
	}
	// Frame is the concatenation over clients.
	frame := c.Frame(nil)
	if len(frame) != c.FrameWidth() {
		t.Fatalf("frame len = %d, want %d", len(frame), c.FrameWidth())
	}
	for i := 0; i < NumClientPIs; i++ {
		if frame[i] != pis[i] {
			t.Fatal("frame[0:10] must equal client 0's PIs")
		}
	}
}

func TestThroughputPIsMatchObservedThroughput(t *testing.T) {
	c := mustCluster(t, DefaultParams(), workload.NewSeqWrite(5, 6))
	c.RunSteady(0, 100, 1)
	netCap := evalNet.aggregateMBps * 1e6
	var piSum float64
	for i := 0; i < c.P.Clients; i++ {
		pis := c.ClientPIs(i, nil)
		piSum += (pis[2] + pis[3]) * netCap
	}
	if math.Abs(piSum-c.AggregateThroughput()) > 1 {
		t.Fatalf("PI throughput %v != aggregate %v", piSum, c.AggregateThroughput())
	}
}

func TestPingRisesUnderLoad(t *testing.T) {
	idle := mustCluster(t, DefaultParams(), constLoad{})
	idle.RunSteady(0, 20, 1)
	busy := mustCluster(t, DefaultParams(), workload.NewSeqWrite(5, 7))
	busy.RunSteady(0, 100, 1)
	if busy.fabric.pingMs() <= idle.fabric.pingMs() {
		t.Fatalf("ping did not rise under load: idle %v, busy %v", idle.fabric.pingMs(), busy.fabric.pingMs())
	}
}

func TestPerturbLayoutChangesBehaviourSlightly(t *testing.T) {
	a := mustCluster(t, DefaultParams(), workload.NewRandRW(1, 9, 8))
	b := mustCluster(t, DefaultParams(), workload.NewRandRW(1, 9, 8))
	b.PerturbLayout(99, 0.10)
	ta := a.RunSteady(0, 200, 100)
	tb := b.RunSteady(0, 200, 100)
	if ta == tb {
		t.Fatal("perturbation had no effect")
	}
	rel := math.Abs(ta-tb) / ta
	if rel > 0.5 {
		t.Fatalf("perturbation changed throughput by %v%%; should be mild", rel*100)
	}
}

func TestMetadataOpsConsumeServerTime(t *testing.T) {
	// Same data demand, with vs without metadata load.
	base := constLoad{}
	base.D.Bytes[disk.RandWrite] = 10e6
	meta := base
	meta.D.MetadataOps = 100 // 100 ops/s × 4 ms = 40% of device time
	c1 := mustCluster(t, DefaultParams(), &base)
	c2 := mustCluster(t, DefaultParams(), &meta)
	t1 := c1.RunSteady(0, 200, 100)
	t2 := c2.RunSteady(0, 200, 100)
	if t2 >= t1 {
		t.Fatalf("metadata load did not reduce data throughput: %v vs %v", t2, t1)
	}
}

func TestServerPIs(t *testing.T) {
	c := mustCluster(t, DefaultParams(), workload.NewRandRW(1, 9, 10))
	c.SetAllWindows(48)
	c.RunSteady(0, 100, 1)
	pis := c.ServerPIs(0, nil)
	if len(pis) != NumServerPIs {
		t.Fatalf("server PIs = %d", len(pis))
	}
	if pis[0] <= 0 {
		t.Fatal("queue depth PI must be positive under load")
	}
	if pis[1] <= 0 {
		t.Fatal("process time PI must be positive under load")
	}
	// Read+write shares partition the queue.
	if math.Abs(pis[2]+pis[3]-1) > 1e-9 {
		t.Fatalf("queue shares = %v + %v", pis[2], pis[3])
	}
	// Write-heavy workload → write share dominates.
	if pis[3] < pis[2] {
		t.Fatal("1:9 workload should have a write-dominated queue")
	}
	for i, v := range pis {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("server PI %d = %v", i, v)
		}
	}
}

func TestFullFrameLayout(t *testing.T) {
	c := mustCluster(t, DefaultParams(), workload.NewRandRW(1, 1, 11))
	c.RunSteady(0, 50, 1)
	full := c.FullFrame(nil)
	if len(full) != c.FullFrameWidth() {
		t.Fatalf("full frame len = %d, want %d", len(full), c.FullFrameWidth())
	}
	if c.FullFrameWidth() != c.FrameWidth()+c.P.Servers*NumServerPIs {
		t.Fatal("full frame width arithmetic wrong")
	}
	// Prefix must equal the client-only frame.
	clientOnly := c.Frame(nil)
	for i, v := range clientOnly {
		if full[i] != v {
			t.Fatal("full frame prefix differs from client frame")
		}
	}
	// Suffix must equal the per-server PIs.
	off := c.FrameWidth()
	s0 := c.ServerPIs(0, nil)
	for i, v := range s0 {
		if full[off+i] != v {
			t.Fatal("full frame server section differs")
		}
	}
}

func TestIdleServerPIsZeroShares(t *testing.T) {
	c := mustCluster(t, DefaultParams(), constLoad{})
	c.Tick(1)
	pis := c.ServerPIs(0, nil)
	if pis[2] != 0 || pis[3] != 0 {
		t.Fatalf("idle shares = %v, %v", pis[2], pis[3])
	}
}

func TestOSCPIsSumToClientThroughput(t *testing.T) {
	c := mustCluster(t, DefaultParams(), workload.NewRandRW(1, 4, 12))
	c.RunSteady(0, 100, 1)
	netCap := evalNet.aggregateMBps * 1e6
	for i := 0; i < c.P.Clients; i++ {
		var oscSum float64
		for s := 0; s < c.P.Servers; s++ {
			pis := c.OSCPIs(i, s, nil)
			if len(pis) != NumOSCPIs {
				t.Fatalf("OSC PIs = %d", len(pis))
			}
			oscSum += (pis[2] + pis[3]) * netCap
		}
		clientTput := c.clients[i].readBps + c.clients[i].writeBps
		if math.Abs(oscSum-clientTput) > 1 {
			t.Fatalf("client %d: OSC sum %v != client %v", i, oscSum, clientTput)
		}
	}
}

func TestPerOSCFrameLayout(t *testing.T) {
	c := mustCluster(t, DefaultParams(), workload.NewRandRW(1, 1, 13))
	c.RunSteady(0, 50, 1)
	f := c.PerOSCFrame(nil)
	if len(f) != c.PerOSCFrameWidth() {
		t.Fatalf("frame len = %d want %d", len(f), c.PerOSCFrameWidth())
	}
	if c.PerOSCFrameWidth() != 5*4*NumOSCPIs {
		t.Fatalf("width = %d", c.PerOSCFrameWidth())
	}
	// First OSC block must equal OSCPIs(0,0).
	first := c.OSCPIs(0, 0, nil)
	for j, v := range first {
		if f[j] != v {
			t.Fatal("per-OSC frame prefix mismatch")
		}
	}
	for j, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("per-OSC frame[%d] = %v", j, v)
		}
	}
}

// Property: the cluster never produces negative or non-finite throughput
// for any window/rate setting on any workload mix.
func TestClusterThroughputAlwaysFiniteProperty(t *testing.T) {
	mixes := [][2]int{{9, 1}, {1, 1}, {1, 9}}
	for seed := int64(1); seed <= 3; seed++ {
		for _, m := range mixes {
			c := mustCluster(t, DefaultParams(), workload.NewRandRW(m[0], m[1], seed))
			rng := c.P.Seed
			_ = rng
			for tick := int64(0); tick < 120; tick++ {
				if tick%30 == 0 {
					c.SetAllWindows(float64(1 + (tick*7+seed*13)%256))
					c.SetAllRateLimits(float64(50 + (tick*977)%19950))
				}
				c.Tick(tick)
				tput := c.AggregateThroughput()
				if tput < 0 || math.IsNaN(tput) || math.IsInf(tput, 0) {
					t.Fatalf("mix %v seed %d tick %d: throughput %v", m, seed, tick, tput)
				}
				for _, v := range c.Frame(nil) {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatal("non-finite PI")
					}
				}
			}
		}
	}
}

// serverQueueDepth returns the total outstanding requests at server s.
func serverQueueDepth(c *Cluster, s int) float64 {
	var t float64
	for i := range c.clients {
		for cl := disk.Class(0); cl < disk.NumClasses; cl++ {
			t += c.clients[i].queued[s][cl]
		}
	}
	return t
}

// constLoad offers the same demand D every tick.
type constLoad struct{ D workload.Demand }

func (constLoad) Name() string                        { return "constant" }
func (c constLoad) Demand(int64, int) workload.Demand { return c.D }
