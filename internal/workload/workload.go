// Package workload generates the offered load for the simulated cluster:
// the Filebench-equivalent synthetic workloads of §4.3 — random
// read/write mixes at fixed ratios, the "file server" personality
// (create/append/read/delete/stat over a prepopulated file set), and the
// five-stream sequential write (HPC checkpoint / video surveillance).
//
// A Generator emits, per simulated second and per client, a Demand: the
// bytes of each request class the client's applications want to move,
// plus metadata operations. Demands are noisy (the paper deliberately ran
// on a non-isolated network and argues noise makes the problem honest);
// noise is reproducible via the seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"capes/internal/disk"
)

// Demand is one client's offered load for one tick.
type Demand struct {
	Bytes       [disk.NumClasses]float64 // bytes the client wants to move, per class
	MetadataOps float64                  // creates/deletes/stats this tick
}

// Generator produces per-client demand each tick.
type Generator interface {
	// Name identifies the workload in reports.
	Name() string
	// Demand returns client `client`'s offered load at tick `now`.
	Demand(now int64, client int) Demand
}

// noise returns a multiplicative factor around 1 with the given relative
// standard deviation, clamped to stay positive.
func noise(rng *rand.Rand, rel float64) float64 {
	f := 1 + rng.NormFloat64()*rel
	if f < 0.1 {
		f = 0.1
	}
	return f
}

// RandRW is the random read/write workload: each client runs Threads
// threads issuing random I/O with a fixed read:write ratio against the
// striped file system. The five ratios evaluated in Figure 2 are
// 9:1, 4:1, 1:1, 1:4 and 1:9.
type RandRW struct {
	ReadParts   int     // read side of the ratio, e.g. 1 in "1:9"
	WriteParts  int     // write side of the ratio
	Threads     int     // threads per client (paper: 5)
	BytesPerSec float64 // per-thread offered bytes/s (enough to saturate)
	Noise       float64 // relative demand noise
	rng         *rand.Rand
}

// NewRandRW builds the Figure 2 workload for the given ratio. The default
// per-thread demand is sized so five clients comfortably saturate the
// four-server cluster.
func NewRandRW(readParts, writeParts int, seed int64) *RandRW {
	return &RandRW{
		ReadParts:   readParts,
		WriteParts:  writeParts,
		Threads:     5,
		BytesPerSec: 4e6,
		Noise:       0.08,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// Name implements Generator.
func (w *RandRW) Name() string {
	return fmt.Sprintf("randrw-%d:%d", w.ReadParts, w.WriteParts)
}

// Demand implements Generator.
func (w *RandRW) Demand(now int64, client int) Demand {
	total := float64(w.Threads) * w.BytesPerSec * noise(w.rng, w.Noise)
	rf := float64(w.ReadParts) / float64(w.ReadParts+w.WriteParts)
	var d Demand
	d.Bytes[disk.RandRead] = total * rf
	d.Bytes[disk.RandWrite] = total * (1 - rf)
	return d
}

// Fileserver simulates the Filebench file-server personality: each
// instance loops create+write 100 MB, append ~100 MB, read 100 MB,
// delete, stat (§4.3). Aggregated over many instances this yields a
// roughly balanced large-I/O read/write mix plus a steady metadata-op
// stream, with heavier fluctuation than the random workloads ("the
// aggregated throughput has more fluctuations").
type Fileserver struct {
	Instances int     // instances per client (paper: 32)
	OpBytes   float64 // bytes per whole-file op (paper: 100 MB)
	CycleSecs float64 // mean seconds one instance needs per loop iteration
	Noise     float64
	rng       *rand.Rand
	// Slow modulation makes the offered mix drift, which is what makes
	// this workload harder for Q-learning (delayed, noisy rewards).
	modPeriod float64
}

// NewFileserver builds the Figure 3/4 workload.
func NewFileserver(instances int, seed int64) *Fileserver {
	return &Fileserver{
		Instances: instances,
		OpBytes:   100e6,
		CycleSecs: 220,
		Noise:     0.25,
		rng:       rand.New(rand.NewSource(seed)),
		modPeriod: 900,
	}
}

// Name implements Generator.
func (w *Fileserver) Name() string { return "fileserver" }

// Demand implements Generator.
func (w *Fileserver) Demand(now int64, client int) Demand {
	// Each loop iteration moves ~100 MB write (create), ~100 MB append,
	// ~100 MB read, so per instance per second:
	perInstance := w.OpBytes / w.CycleSecs
	inst := float64(w.Instances)
	mod := 1 + 0.15*math.Sin(2*math.Pi*float64(now)/w.modPeriod+float64(client))
	n := noise(w.rng, w.Noise)
	var d Demand
	// Writes (create + append) are 2 of the 3 data ops; they are whole-
	// file but interleaved across 32 instances, so the disk sees them as
	// semi-random large I/O: split between seq and rand write.
	writeBytes := 2 * perInstance * inst * mod * n
	readBytes := perInstance * inst * mod * n
	d.Bytes[disk.SeqWrite] = writeBytes * 0.4
	d.Bytes[disk.RandWrite] = writeBytes * 0.6
	d.Bytes[disk.SeqRead] = readBytes * 0.3
	d.Bytes[disk.RandRead] = readBytes * 0.7
	// Two metadata ops (delete, stat) plus a create per cycle.
	d.MetadataOps = 3 * inst / w.CycleSecs * mod * n
	return d
}

// SeqWrite is the five-stream concurrent sequential write workload: each
// client runs Streams instances writing sequentially with 1 MB writes,
// simulating HPC checkpointing and video surveillance (§4.3).
type SeqWrite struct {
	Streams     int     // streams per client (paper: 5)
	BytesPerSec float64 // per-stream offered bytes/s
	Noise       float64
	rng         *rand.Rand
}

// NewSeqWrite builds the Figure 3 sequential-write workload.
func NewSeqWrite(streams int, seed int64) *SeqWrite {
	return &SeqWrite{
		Streams:     streams,
		BytesPerSec: 30e6,
		Noise:       0.05,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// Name implements Generator.
func (w *SeqWrite) Name() string { return "seqwrite" }

// Demand implements Generator.
func (w *SeqWrite) Demand(now int64, client int) Demand {
	var d Demand
	d.Bytes[disk.SeqWrite] = float64(w.Streams) * w.BytesPerSec * noise(w.rng, w.Noise)
	return d
}

// Switching alternates between phases of different workloads on a
// schedule — the "dynamically changing workloads" case. The Interface
// Daemon is notified at each switch so it can bump ε (§3.6).
type Switching struct {
	Phases     []Generator
	PhaseTicks int64
}

// NewSwitching builds a schedule cycling through phases every phaseTicks.
func NewSwitching(phaseTicks int64, phases ...Generator) *Switching {
	if len(phases) == 0 {
		panic("workload: Switching needs at least one phase")
	}
	if phaseTicks <= 0 {
		panic("workload: phaseTicks must be positive")
	}
	return &Switching{Phases: phases, PhaseTicks: phaseTicks}
}

// Name implements Generator.
func (w *Switching) Name() string { return "switching" }

// Demand implements Generator.
func (w *Switching) Demand(now int64, client int) Demand {
	return w.current(now).Demand(now, client)
}

func (w *Switching) current(now int64) Generator {
	idx := (now / w.PhaseTicks) % int64(len(w.Phases))
	return w.Phases[idx]
}
