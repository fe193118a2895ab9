package storesim

import "capes/internal/disk"

// Performance indicators (§4.1). Each client exposes the paper's nine
// indicators plus the second tunable (the I/O rate limit), normalized to
// roughly unit scale so they can be fed to the DNN directly:
//
//	 0 max_rpc_in_flight (congestion window) / WindowMax
//	 1 I/O rate limit / RateMax
//	 2 read throughput, fraction of aggregate network capacity
//	 3 write throughput, fraction of aggregate network capacity
//	 4 dirty bytes in write cache / cache size
//	 5 maximum size of write cache (constant 1.0 — kept for fidelity
//	   with the paper's list; constants are ignored by the DNN)
//	 6 ping latency, ms / 10
//	 7 Ack EWMA: smoothed gap between server replies, seconds × 100
//	 8 Send EWMA: smoothed gap between request sends, seconds × 100
//	 9 Process-Time ratio: current PT / best PT seen, / 10
//
// The frame fed to the Replay DB is the concatenation of all clients'
// indicator vectors.

// NumClientPIs is the number of performance indicators per client.
const NumClientPIs = 10

// ClientPIs writes client i's normalized indicator vector into dst
// (len ≥ NumClientPIs) and returns it; dst==nil allocates.
func (c *Cluster) ClientPIs(i int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, NumClientPIs)
	}
	cs := &c.clients[i]
	netCap := evalNet.aggregateMBps * 1e6
	dirty := cs.backlog[disk.RandWrite] + cs.backlog[disk.SeqWrite]
	ptRatio := 1.0
	if cs.ptBest > 0 && cs.ptBest < 1e8 && cs.ptCur > 0 {
		ptRatio = cs.ptCur / cs.ptBest
	}
	dst[0] = cs.window / c.P.WindowMax
	dst[1] = cs.rateLimit / c.P.RateMax
	dst[2] = cs.readBps / netCap
	dst[3] = cs.writeBps / netCap
	dst[4] = dirty / c.P.WriteCacheBytes
	dst[5] = 1.0
	dst[6] = c.fabric.pingMs() / 10
	dst[7] = cs.ackEWMA * 100
	dst[8] = cs.sendEWMA * 100
	dst[9] = ptRatio / 10
	return dst
}

// FrameWidth returns the width of the full-cluster indicator frame.
func (c *Cluster) FrameWidth() int { return c.P.Clients * NumClientPIs }

// Frame writes the concatenated indicator vectors of all clients into dst
// (len ≥ FrameWidth) and returns it; dst==nil allocates. This is what the
// Monitoring Agents ship to the Interface Daemon each sampling tick.
func (c *Cluster) Frame(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, c.FrameWidth())
	}
	for i := 0; i < c.P.Clients; i++ {
		c.ClientPIs(i, dst[i*NumClientPIs:(i+1)*NumClientPIs])
	}
	return dst
}

// RunSteady advances the cluster n ticks starting at the clock position
// `from` and returns the mean aggregate throughput over the last
// measure ticks (bytes/s). It is the steady-state probe used by the
// baseline tuners and the calibration tests.
func (c *Cluster) RunSteady(from, n, measure int64) float64 {
	if measure > n {
		measure = n
	}
	var sum float64
	for i := int64(0); i < n; i++ {
		c.Tick(from + i)
		if i >= n-measure {
			sum += c.AggregateThroughput()
		}
	}
	if measure <= 0 {
		return 0
	}
	return sum / float64(measure)
}

// Server-side performance indicators (§6 future work: "we can collect
// information from server nodes in addition to client nodes"). Each
// server exposes four indicators:
//
//	0 total outstanding queue depth / overload knee
//	1 mean process time, seconds × 100
//	2 read share of the queue
//	3 write share of the queue
const NumServerPIs = 4

// ServerPIs writes server s's normalized indicator vector into dst
// (len ≥ NumServerPIs) and returns it; dst==nil allocates.
func (c *Cluster) ServerPIs(s int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, NumServerPIs)
	}
	var readQ, writeQ, total float64
	for i := range c.clients {
		q := c.clients[i].queued[s]
		for cl := disk.Class(0); cl < disk.NumClasses; cl++ {
			total += q[cl]
			if cl.IsRead() {
				readQ += q[cl]
			} else {
				writeQ += q[cl]
			}
		}
	}
	dst[0] = total / c.P.Disk.OverloadQueue
	dst[1] = c.servers[s].procTime * 100
	if total > 0 {
		dst[2] = readQ / total
		dst[3] = writeQ / total
	} else {
		dst[2], dst[3] = 0, 0
	}
	return dst
}

// FullFrameWidth is the width of a frame that includes both client and
// server indicators.
func (c *Cluster) FullFrameWidth() int {
	return c.P.Clients*NumClientPIs + c.P.Servers*NumServerPIs
}

// FullFrame concatenates every client's PIs followed by every server's
// PIs — the observation layout for deployments that also monitor the
// storage servers.
func (c *Cluster) FullFrame(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, c.FullFrameWidth())
	}
	c.Frame(dst[:c.FrameWidth()])
	off := c.FrameWidth()
	for s := 0; s < c.P.Servers; s++ {
		c.ServerPIs(s, dst[off+s*NumServerPIs:off+(s+1)*NumServerPIs])
	}
	return dst
}

// Per-OSC performance indicators — the paper's actual observation layout
// (§4.1): "Each Lustre client maintains one Object Storage Client (OSC)
// for a server it talks to … Each OSC's Performance Indicators are
// calculated independently", 44 PIs per client on the 4-server rig. Our
// per-OSC vector has the same ten slots as ClientPIs with the throughput
// and process-time entries resolved per OSC.
const NumOSCPIs = 10

// OSCPIs writes the normalized indicator vector of client i's OSC for
// server s into dst (len ≥ NumOSCPIs) and returns it; dst==nil allocates.
func (c *Cluster) OSCPIs(i, s int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, NumOSCPIs)
	}
	cs := &c.clients[i]
	sv := &c.servers[s]
	netCap := evalNet.aggregateMBps * 1e6
	dirty := cs.backlog[disk.RandWrite] + cs.backlog[disk.SeqWrite]
	ptRatio := 1.0
	if sv.ptBest > 0 && sv.ptBest < 1e8 && sv.procTime > 0 {
		ptRatio = sv.procTime / sv.ptBest
	}
	dst[0] = cs.window / c.P.WindowMax
	dst[1] = cs.rateLimit / c.P.RateMax
	dst[2] = cs.oscRead[s] / netCap
	dst[3] = cs.oscWrite[s] / netCap
	dst[4] = dirty / c.P.WriteCacheBytes
	dst[5] = 1.0
	dst[6] = c.fabric.pingMs() / 10
	dst[7] = cs.ackEWMA * 100
	dst[8] = cs.sendEWMA * 100
	dst[9] = ptRatio / 10
	return dst
}

// PerOSCFrameWidth is the width of the per-OSC frame: clients × servers
// × NumOSCPIs (5×4×10 = 200 on the paper rig, analogous to its 44×5).
func (c *Cluster) PerOSCFrameWidth() int {
	return c.P.Clients * c.P.Servers * NumOSCPIs
}

// PerOSCFrame concatenates every client's per-OSC indicator vectors in
// (client, server) order.
func (c *Cluster) PerOSCFrame(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, c.PerOSCFrameWidth())
	}
	k := 0
	for i := 0; i < c.P.Clients; i++ {
		for s := 0; s < c.P.Servers; s++ {
			c.OSCPIs(i, s, dst[k:k+NumOSCPIs])
			k += NumOSCPIs
		}
	}
	return dst
}
