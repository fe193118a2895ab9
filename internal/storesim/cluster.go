// Package storesim simulates the evaluation target system of §4.2: a
// Lustre-like distributed file system with dedicated server nodes and
// client nodes. Each client maintains one Object Storage Client (OSC) per
// server (stripe count = number of servers), and every OSC is subject to
// the two tunables CAPES adjusts:
//
//   - max_rpc_in_flight: the congestion window — how many RPCs an OSC may
//     have outstanding; and
//   - an I/O rate limit: how many outgoing I/O requests a client may
//     issue per second.
//
// The simulation is flow-level on the shared virtual clock (1 tick = 1 s):
// per tick, application demand (internal/workload) accumulates in client
// backlogs, clients issue requests subject to window and rate limit,
// servers service their queues through the disk model (internal/disk)
// with congestion-collapse overload, and the network fabric
// (network.go) caps transfers. The observable state — the nine
// performance indicators of §4.1 — and the throughput objective come out
// of the same arithmetic, so the tuner faces the response surface the
// paper describes: write-heavy workloads reward a larger window up to an
// interior optimum; read-heavy workloads are insensitive.
package storesim

import (
	"fmt"
	"math/rand"

	"capes/internal/disk"
	"capes/internal/workload"
)

// Params configures the cluster.
type Params struct {
	Clients int // paper: 5
	Servers int // paper: 4

	Disk disk.Params

	// Congestion window (max_rpc_in_flight) per OSC.
	WindowMin, WindowMax, WindowDefault float64

	// Client-wide I/O rate limit, requests/second. The default is the
	// maximum — effectively uncapped, like stock Lustre.
	RateMin, RateMax, RateDefault float64

	// WriteCacheBytes is each client's write-cache capacity; the "dirty
	// bytes in write cache" PI is the backlog against this limit. Demand
	// beyond a full cache blocks the application (is shed).
	WriteCacheBytes float64

	// ReadBacklogBytes caps queued read demand the same way.
	ReadBacklogBytes float64

	// ServiceNoise is the relative per-tick noise on device service
	// rates (ambient interference; the paper kept its network noisy on
	// purpose).
	ServiceNoise float64

	Seed int64
}

// DefaultParams returns the paper's 5-client/4-server rig.
func DefaultParams() Params {
	return Params{
		Clients:          5,
		Servers:          4,
		Disk:             disk.DefaultHDD(),
		WindowMin:        1,
		WindowMax:        256,
		WindowDefault:    8, // Lustre's default max_rpcs_in_flight
		RateMin:          50,
		RateMax:          20000,
		RateDefault:      20000,
		WriteCacheBytes:  512e6,
		ReadBacklogBytes: 512e6,
		ServiceNoise:     0.05,
		Seed:             1,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Clients <= 0 || p.Servers <= 0 {
		return fmt.Errorf("storesim: need at least one client and one server")
	}
	if err := p.Disk.Validate(); err != nil {
		return err
	}
	if p.WindowMin < 1 || p.WindowMax < p.WindowMin {
		return fmt.Errorf("storesim: invalid window range [%v,%v]", p.WindowMin, p.WindowMax)
	}
	if p.WindowDefault < p.WindowMin || p.WindowDefault > p.WindowMax {
		return fmt.Errorf("storesim: default window %v outside [%v,%v]", p.WindowDefault, p.WindowMin, p.WindowMax)
	}
	if p.RateMin <= 0 || p.RateMax < p.RateMin {
		return fmt.Errorf("storesim: invalid rate range [%v,%v]", p.RateMin, p.RateMax)
	}
	if p.RateDefault < p.RateMin || p.RateDefault > p.RateMax {
		return fmt.Errorf("storesim: default rate %v outside [%v,%v]", p.RateDefault, p.RateMin, p.RateMax)
	}
	if p.WriteCacheBytes <= 0 || p.ReadBacklogBytes <= 0 {
		return fmt.Errorf("storesim: cache sizes must be positive")
	}
	return nil
}

// clientState holds one client's mutable state.
type clientState struct {
	window    float64 // max_rpc_in_flight (same for all its OSCs)
	rateLimit float64 // requests/second across the client

	backlog    [disk.NumClasses]float64 // bytes awaiting issue
	demandEWMA [disk.NumClasses]float64 // smoothed offered bytes/s per class
	metaOps    float64                  // metadata ops awaiting service

	// queued[s][class]: requests outstanding at server s.
	queued [][disk.NumClasses]float64

	// Last-tick observables.
	readBps  float64
	writeBps float64
	oscRead  []float64 // per-server read bytes/s
	oscWrite []float64 // per-server write bytes/s
	sendRate float64   // requests issued last tick
	ackRate  float64   // replies received last tick
	ackEWMA  float64   // EWMA of gap between replies (seconds)
	sendEWMA float64   // EWMA of gap between sends (seconds)
	ptCur    float64   // current mean process time at servers (seconds)
	ptBest   float64   // best (lowest) process time seen
}

func (c *clientState) inflight(s int) float64 {
	var t float64
	for _, q := range c.queued[s] {
		t += q
	}
	return t
}

// serverState holds one server's mutable state.
type serverState struct {
	procTime float64 // mean service time last tick (seconds per request)
	ptBest   float64 // lowest process time seen (PT-ratio denominator)
}

// Cluster is the simulated target system.
type Cluster struct {
	P Params

	dev     *disk.Device
	fabric  *netFabric
	rng     *rand.Rand
	clients []clientState
	servers []serverState
	gen     workload.Generator

	tick            int64
	aggReadBps      float64
	aggWriteBps     float64
	totalReadBytes  float64
	totalWriteBytes float64
	shedBytes       float64

	// Per-tick scratch, reused so Tick allocates nothing in steady
	// state: the dense (client, server) completion table (indexed
	// i*Servers+s), the per-client byte demand handed to the fabric,
	// and the per-client rate-limit budgets.
	completions []([disk.NumClasses]float64)
	wantBytes   []float64
	budgets     []float64
}

// New builds a cluster running the given workload generator.
func New(p Params, gen workload.Generator) (*Cluster, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if gen == nil {
		return nil, fmt.Errorf("storesim: nil workload generator")
	}
	dev, err := disk.New(p.Disk)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		P:           p,
		dev:         dev,
		fabric:      &netFabric{p: evalNet},
		rng:         rand.New(rand.NewSource(p.Seed)),
		clients:     make([]clientState, p.Clients),
		servers:     make([]serverState, p.Servers),
		gen:         gen,
		completions: make([][disk.NumClasses]float64, p.Clients*p.Servers),
		wantBytes:   make([]float64, p.Clients),
		budgets:     make([]float64, p.Clients),
	}
	for i := range c.clients {
		cs := &c.clients[i]
		cs.window = p.WindowDefault
		cs.rateLimit = p.RateDefault
		cs.queued = make([][disk.NumClasses]float64, p.Servers)
		cs.oscRead = make([]float64, p.Servers)
		cs.oscWrite = make([]float64, p.Servers)
		cs.ptBest = 1e9
	}
	for s := range c.servers {
		c.servers[s].ptBest = 1e9
	}
	return c, nil
}

// SetWindow sets max_rpc_in_flight for every OSC of client i, clamped to
// the valid range.
func (c *Cluster) SetWindow(client int, w float64) {
	if w < c.P.WindowMin {
		w = c.P.WindowMin
	}
	if w > c.P.WindowMax {
		w = c.P.WindowMax
	}
	c.clients[client].window = w
}

// SetRateLimit sets client i's I/O issue rate limit, clamped.
func (c *Cluster) SetRateLimit(client int, r float64) {
	if r < c.P.RateMin {
		r = c.P.RateMin
	}
	if r > c.P.RateMax {
		r = c.P.RateMax
	}
	c.clients[client].rateLimit = r
}

// SetAllWindows applies SetWindow to every client (the evaluation tunes
// all clients to the same values).
func (c *Cluster) SetAllWindows(w float64) {
	for i := range c.clients {
		c.SetWindow(i, w)
	}
}

// SetAllRateLimits applies SetRateLimit to every client.
func (c *Cluster) SetAllRateLimits(r float64) {
	for i := range c.clients {
		c.SetRateLimit(i, r)
	}
}

// Window returns client i's congestion window.
func (c *Cluster) Window(client int) float64 { return c.clients[client].window }

// RateLimit returns client i's rate limit.
func (c *Cluster) RateLimit(client int) float64 { return c.clients[client].rateLimit }

// Tick advances the cluster by one simulated second.
func (c *Cluster) Tick(now int64) {
	c.tick = now
	p := &c.P

	// 1. Application demand accumulates in client backlogs, shedding
	// what exceeds the caches (blocked applications).
	for i := range c.clients {
		cs := &c.clients[i]
		d := c.gen.Demand(now, i)
		for cl := disk.Class(0); cl < disk.NumClasses; cl++ {
			cs.backlog[cl] += d.Bytes[cl]
			cs.demandEWMA[cl] = ewma(cs.demandEWMA[cl], d.Bytes[cl], 0.1)
		}
		cs.metaOps += d.MetadataOps
		// Cap write-side backlog at the write cache, read-side at the
		// read backlog cap.
		wb := cs.backlog[disk.RandWrite] + cs.backlog[disk.SeqWrite]
		if wb > p.WriteCacheBytes {
			over := wb - p.WriteCacheBytes
			c.shedBytes += over
			shedProportional(&cs.backlog, disk.RandWrite, disk.SeqWrite, over)
		}
		rb := cs.backlog[disk.RandRead] + cs.backlog[disk.SeqRead]
		if rb > p.ReadBacklogBytes {
			over := rb - p.ReadBacklogBytes
			c.shedBytes += over
			shedProportional(&cs.backlog, disk.RandRead, disk.SeqRead, over)
		}
	}

	// 2. Clients issue requests: striped evenly across servers, subject
	// to per-OSC window and the client-wide rate limit.
	for i := range c.clients {
		cs := &c.clients[i]
		budget := cs.rateLimit // requests this second
		var sent float64
		for s := 0; s < p.Servers; s++ {
			free := cs.window - cs.inflight(s)
			if free <= 0 {
				continue
			}
			// Allocate the free window across classes proportionally to
			// the *offered demand* mix in requests (EWMA-smoothed), so a
			// 1:9 byte mix yields a 1:9 request mix in the queue even
			// when every backlog is pinned at its cache cap. A class
			// only participates while it has backlog to issue from.
			var want [disk.NumClasses]float64
			var totalWant float64
			for cl := disk.Class(0); cl < disk.NumClasses; cl++ {
				if cs.backlog[cl] <= 0 {
					continue
				}
				rb := p.Disk.BytesPerRequest(cl)
				want[cl] = minf(cs.demandEWMA[cl], cs.backlog[cl]) / rb / float64(p.Servers)
				// A saturated class may issue its whole backlog share.
				if w := cs.backlog[cl] / rb / float64(p.Servers); want[cl] > w {
					want[cl] = w
				}
				totalWant += want[cl]
			}
			if totalWant <= 0 {
				continue
			}
			grant := minf(totalWant, free, budget)
			for cl := disk.Class(0); cl < disk.NumClasses; cl++ {
				if want[cl] <= 0 {
					continue
				}
				n := grant * want[cl] / totalWant
				cs.queued[s][cl] += n
				cs.backlog[cl] -= n * p.Disk.BytesPerRequest(cl)
				if cs.backlog[cl] < 0 {
					cs.backlog[cl] = 0
				}
				sent += n
			}
			budget -= grant
		}
		cs.sendRate = sent
	}

	// 3. Servers service their queues through the disk model.
	//
	// The congestion window refills many times within one simulated
	// second (RTT ≪ 1 s), so completions are *not* capped by the queue
	// snapshot: the window sets the steady queue depth (which drives the
	// elevator merge gain and the overload penalty), while the number of
	// requests completed per tick comes from the service rate, with
	// drained requests replenished from the client backlog (subject to
	// the rate limit) — a closed-loop flow approximation.
	// Dense (client, server) completion table: indexed i*Servers+s.
	// A slice rather than a map so the accumulation loops below visit
	// entries in a fixed order — float sums depend on order, and map
	// iteration would make same-seed runs diverge in the last bits.
	completions := c.completions
	for i := range completions {
		completions[i] = [disk.NumClasses]float64{}
	}
	for s := 0; s < p.Servers; s++ {
		// Aggregate queue per class and total.
		var classQ [disk.NumClasses]float64
		var totalQ float64
		for i := range c.clients {
			for cl := disk.Class(0); cl < disk.NumClasses; cl++ {
				classQ[cl] += c.clients[i].queued[s][cl]
			}
		}
		for _, q := range classQ {
			totalQ += q
		}
		// Metadata ops consume device time first (they are small but
		// positioning-bound).
		var metaShare float64
		var totalMeta float64
		for i := range c.clients {
			totalMeta += c.clients[i].metaOps / float64(p.Servers)
		}
		metaShare = totalMeta * p.Disk.MetadataOpCost
		if metaShare > 0.5 {
			metaShare = 0.5 // metadata can consume at most half the device
		}
		dataTime := 1 - metaShare
		// Consume metadata backlog.
		if totalMeta > 0 {
			served := metaShare / p.Disk.MetadataOpCost
			frac := served / totalMeta
			if frac > 1 {
				frac = 1
			}
			for i := range c.clients {
				c.clients[i].metaOps -= c.clients[i].metaOps / float64(p.Servers) * frac
			}
		}
		if totalQ <= 0 {
			c.servers[s].procTime = 0
			continue
		}
		overload := c.dev.OverloadFactor(totalQ)
		svcNoise := 1.0
		if p.ServiceNoise > 0 {
			svcNoise = 1 + c.rng.NormFloat64()*p.ServiceNoise
			if svcNoise < 0.2 {
				svcNoise = 0.2
			}
		}
		// Time sharing: each class gets device time proportional to the
		// work (queue × service time) it represents.
		var work [disk.NumClasses]float64
		var totalWork float64
		for cl := disk.Class(0); cl < disk.NumClasses; cl++ {
			if classQ[cl] <= 0 {
				continue
			}
			work[cl] = classQ[cl] * c.dev.ServiceTime(cl, classQ[cl])
			totalWork += work[cl]
		}
		var servedReqs, servedTime float64
		for cl := disk.Class(0); cl < disk.NumClasses; cl++ {
			if classQ[cl] <= 0 || totalWork <= 0 {
				continue
			}
			share := work[cl] / totalWork * dataTime
			rate := c.dev.IOPSAt(cl, classQ[cl]) / overload * svcNoise
			done := share * rate // closed-loop: not capped by queue snapshot
			if done <= 0 {
				continue
			}
			servedReqs += done
			servedTime += share
			// Distribute tentative completions across clients by queue
			// share, capped by what each client can actually supply this
			// tick (its queue plus replenishment from backlog).
			reqBytes := p.Disk.BytesPerRequest(cl)
			for i := range c.clients {
				q := c.clients[i].queued[s][cl]
				if q <= 0 {
					continue
				}
				got := done * q / classQ[cl]
				supply := q + c.clients[i].backlog[cl]/reqBytes/float64(p.Servers)
				if got > supply {
					got = supply
				}
				completions[i*p.Servers+s][cl] += got
			}
		}
		if servedReqs > 0 {
			pt := servedTime / servedReqs * overload
			c.servers[s].procTime = pt
			if pt > 0 && pt < c.servers[s].ptBest {
				c.servers[s].ptBest = pt
			}
		} else {
			c.servers[s].procTime = 0
		}
	}

	// 4. Network admission: bytes each client moves this tick.
	wantBytes := c.wantBytes
	for i := range wantBytes {
		wantBytes[i] = 0
	}
	for idx, arr := range completions {
		client := idx / p.Servers
		for cl := disk.Class(0); cl < disk.NumClasses; cl++ {
			wantBytes[client] += arr[cl] * p.Disk.BytesPerRequest(cl)
		}
	}
	scales := c.fabric.admit(wantBytes)

	// 5. Apply scaled completions: drain queues first, then replenish
	// from backlog (consuming the remaining rate-limit budget — these
	// are requests that were issued and completed within the tick).
	for i := range c.clients {
		c.clients[i].readBps = 0
		c.clients[i].writeBps = 0
		for s := 0; s < p.Servers; s++ {
			c.clients[i].oscRead[s] = 0
			c.clients[i].oscWrite[s] = 0
		}
	}
	budgets := c.budgets
	for i := range c.clients {
		budgets[i] = c.clients[i].rateLimit - c.clients[i].sendRate
		if budgets[i] < 0 {
			budgets[i] = 0
		}
	}
	for idx, arr := range completions {
		client, server := idx/p.Servers, idx%p.Servers
		cs := &c.clients[client]
		sc := scales[client]
		var acks float64
		for cl := disk.Class(0); cl < disk.NumClasses; cl++ {
			done := arr[cl] * sc
			if done <= 0 {
				continue
			}
			reqBytes := p.Disk.BytesPerRequest(cl)
			fromQueue := minf(done, cs.queued[server][cl])
			cs.queued[server][cl] -= fromQueue
			rest := done - fromQueue
			replenished := minf(rest, budgets[client], cs.backlog[cl]/reqBytes)
			if replenished < 0 {
				replenished = 0
			}
			cs.backlog[cl] -= replenished * reqBytes
			if cs.backlog[cl] < 0 {
				cs.backlog[cl] = 0
			}
			budgets[client] -= replenished
			cs.sendRate += replenished
			total := fromQueue + replenished
			bytes := total * reqBytes
			if cl.IsRead() {
				cs.readBps += bytes
				cs.oscRead[server] += bytes
				c.totalReadBytes += bytes
			} else {
				cs.writeBps += bytes
				cs.oscWrite[server] += bytes
				c.totalWriteBytes += bytes
			}
			acks += total
		}
		cs.ackRate += acks
	}

	// 6. Client observables.
	c.aggReadBps, c.aggWriteBps = 0, 0
	for i := range c.clients {
		cs := &c.clients[i]
		if cs.ackRate > 0 {
			cs.ackEWMA = ewma(cs.ackEWMA, 1.0/cs.ackRate, 0.2)
		}
		if cs.sendRate > 0 {
			cs.sendEWMA = ewma(cs.sendEWMA, 1.0/cs.sendRate, 0.2)
		}
		// Mean process time across servers this client talks to.
		var pt float64
		var n float64
		for s := 0; s < p.Servers; s++ {
			if c.servers[s].procTime > 0 {
				pt += c.servers[s].procTime
				n++
			}
		}
		if n > 0 {
			cs.ptCur = pt / n
			if cs.ptCur < cs.ptBest {
				cs.ptBest = cs.ptCur
			}
		}
		c.aggReadBps += cs.readBps
		c.aggWriteBps += cs.writeBps
		cs.ackRate = 0
	}
}

func shedProportional(backlog *[disk.NumClasses]float64, a, b disk.Class, over float64) {
	tot := backlog[a] + backlog[b]
	if tot <= 0 {
		return
	}
	backlog[a] -= over * backlog[a] / tot
	backlog[b] -= over * backlog[b] / tot
	if backlog[a] < 0 {
		backlog[a] = 0
	}
	if backlog[b] < 0 {
		backlog[b] = 0
	}
}

func minf(vals ...float64) float64 {
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func ewma(prev, sample, alpha float64) float64 {
	if prev == 0 {
		return sample
	}
	return prev*(1-alpha) + sample*alpha
}

// AggregateThroughput returns last tick's total bytes/s (read + write) —
// the single-objective reward input for the evaluation.
func (c *Cluster) AggregateThroughput() float64 { return c.aggReadBps + c.aggWriteBps }

// PerturbLayout re-randomizes secondary device characteristics by up to
// ±frac, modeling the between-session changes of the Figure 4 overfitting
// test: "on-disk data location, file fragmentation, allocation of files
// among servers, and the amount of free space".
func (c *Cluster) PerturbLayout(seed int64, frac float64) {
	rng := rand.New(rand.NewSource(seed))
	jitter := func(v float64) float64 { return v * (1 + (rng.Float64()*2-1)*frac) }
	p := c.dev.P
	p.PositionMs = jitter(p.PositionMs)
	p.WriteGainHalf = jitter(p.WriteGainHalf)
	p.OverloadQueue = jitter(p.OverloadQueue)
	c.dev.P = p
}
