package storesim

// The evaluation cluster's network: gigabit Ethernet per node with a
// measured peak aggregate of ~500 MB/s (§4.2), giving the 1:1
// network-to-storage bandwidth ratio the authors chose to mimic larger
// supercomputers. The model is flow-level: per tick it caps the bytes
// each client may move and the aggregate across the fabric, and derives
// ping latency from utilization.

// netParams configures the fabric.
type netParams struct {
	clientLinkMBps float64 // per-client link capacity (GbE ≈ 117 MB/s)
	aggregateMBps  float64 // fabric aggregate (paper: ~500 MB/s)
	basePingMs     float64 // idle round-trip latency
	// queuePingMs scales the latency added at full utilization:
	// ping = base + queuePingMs · u/(1−u) (M/M/1-style growth, capped).
	queuePingMs float64
	maxPingMs   float64
}

// evalNet is the evaluation cluster's network profile.
var evalNet = netParams{
	clientLinkMBps: 117,
	aggregateMBps:  500,
	basePingMs:     0.25,
	queuePingMs:    0.8,
	maxPingMs:      200,
}

// netFabric applies the capacity model.
type netFabric struct {
	p netParams

	lastUtilization float64
}

// admit takes the bytes each client wants to move this tick (reads plus
// writes; the links are full duplex but Lustre RPC traffic on the
// evaluation rig was effectively shared) and returns the per-client
// scale factors in (0,1] after enforcing per-link and aggregate limits.
// It also records utilization for pingMs.
func (f *netFabric) admit(wantBytes []float64) []float64 {
	scale := make([]float64, len(wantBytes))
	linkCap := f.p.clientLinkMBps * 1e6
	var total float64
	granted := make([]float64, len(wantBytes))
	for i, w := range wantBytes {
		if w <= 0 {
			scale[i] = 1
			continue
		}
		g := w
		if g > linkCap {
			g = linkCap
		}
		granted[i] = g
		total += g
	}
	aggCap := f.p.aggregateMBps * 1e6
	aggScale := 1.0
	if total > aggCap {
		aggScale = aggCap / total
	}
	var used float64
	for i, w := range wantBytes {
		if w <= 0 {
			continue
		}
		g := granted[i] * aggScale
		scale[i] = g / w
		used += g
	}
	f.lastUtilization = used / aggCap
	return scale
}

// pingMs returns the current client↔server round-trip latency implied by
// fabric utilization (the "ping latency from each client to each server"
// performance indicator).
func (f *netFabric) pingMs() float64 {
	u := f.lastUtilization
	if u > 0.99 {
		u = 0.99
	}
	ping := f.p.basePingMs + f.p.queuePingMs*u/(1-u)
	if ping > f.p.maxPingMs {
		ping = f.p.maxPingMs
	}
	return ping
}
