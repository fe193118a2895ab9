// Package disk models the storage device behind each (simulated) Lustre
// object storage server. The evaluation hardware in the paper was a
// 7200 RPM HGST Travelstar Z7K500: 113 MB/s sequential read, 106 MB/s
// sequential write, with random I/O dominated by positioning time.
//
// The model captures the three properties the paper's analysis leans on
// (§4.3):
//
//  1. Random reads are seek-bound: queueing more outstanding reads barely
//     helps, because "hard disk drives ... need to spend a majority of
//     I/O time doing seeks for random reads and would not be affected
//     much by the number of outstanding read requests".
//  2. Random writes benefit substantially from deeper queues:
//     "outstanding random write requests can be merged and handled more
//     efficiently if there are more requests in the I/O queue".
//  3. Pushing a server past its capacity degrades efficiency — the
//     "congestion collapse" phenomenon (§2) that makes an *interior*
//     congestion-window value optimal.
//
// Rates are expressed as requests/second as a function of queue depth;
// the server (internal/storesim) composes them with time sharing across
// request classes and the overload penalty.
package disk

import "fmt"

// Params configures a device model. The zero value is not usable; start
// from DefaultHDD or DefaultSSD.
type Params struct {
	// Sequential streaming rates, MB/s.
	SeqReadMBps  float64
	SeqWriteMBps float64

	// RandIOSizeKB is the random-request payload (the randrw workloads
	// issue small I/O; the sequential streams issue SeqIOSizeKB).
	RandIOSizeKB float64
	SeqIOSizeKB  float64

	// Positioning cost for an isolated random request, milliseconds
	// (average seek + half-rotation).
	PositionMs float64

	// Read queue gain: NCQ reordering shaves a little positioning time.
	// iops_r(q) = baseR · (1 + ReadGain·q/(q+ReadGainHalf))
	ReadGain     float64
	ReadGainHalf float64

	// Write queue gain: elevator sorting + request merging. Same form,
	// much larger ceiling.
	// iops_w(q) = baseW · (1 + WriteGain·q/(q+WriteGainHalf))
	WriteGain     float64
	WriteGainHalf float64

	// Overload (congestion collapse): beyond OverloadQueue outstanding
	// requests, every service rate is divided by
	// 1 + ((q−OverloadQueue)/OverloadScale)².
	OverloadQueue float64
	OverloadScale float64

	// MetadataOpCost is the fraction of a second of device time one
	// metadata operation (create/delete/stat) consumes.
	MetadataOpCost float64
}

// DefaultHDD returns parameters calibrated to the paper's Travelstar
// Z7K500-class drive and to the evaluation's observed tuning headroom
// (write-heavy workloads gain ≈45% between the Lustre default window and
// the optimum; read-heavy workloads gain almost nothing).
func DefaultHDD() Params {
	return Params{
		SeqReadMBps:    113,
		SeqWriteMBps:   106,
		RandIOSizeKB:   8,
		SeqIOSizeKB:    1024,
		PositionMs:     11,
		ReadGain:       0.12,
		ReadGainHalf:   16,
		WriteGain:      2.4,
		WriteGainHalf:  80,
		OverloadQueue:  360,
		OverloadScale:  220,
		MetadataOpCost: 0.004,
	}
}

// DefaultSSD returns a solid-state profile (used by ablation/what-if
// benches: on an SSD the congestion window barely matters, so CAPES
// should find little to tune).
func DefaultSSD() Params {
	return Params{
		SeqReadMBps:    480,
		SeqWriteMBps:   420,
		RandIOSizeKB:   8,
		SeqIOSizeKB:    1024,
		PositionMs:     0.08,
		ReadGain:       0.6,
		ReadGainHalf:   8,
		WriteGain:      0.6,
		WriteGainHalf:  8,
		OverloadQueue:  2000,
		OverloadScale:  800,
		MetadataOpCost: 0.0002,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.SeqReadMBps <= 0 || p.SeqWriteMBps <= 0 {
		return fmt.Errorf("disk: sequential rates must be positive (%v, %v)", p.SeqReadMBps, p.SeqWriteMBps)
	}
	if p.RandIOSizeKB <= 0 || p.SeqIOSizeKB <= 0 {
		return fmt.Errorf("disk: I/O sizes must be positive")
	}
	if p.PositionMs < 0 {
		return fmt.Errorf("disk: PositionMs must be non-negative")
	}
	if p.OverloadQueue <= 0 || p.OverloadScale <= 0 {
		return fmt.Errorf("disk: overload parameters must be positive")
	}
	return nil
}

// Device evaluates the model for one drive.
type Device struct {
	P Params
}

// New returns a Device after validating params.
func New(p Params) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Device{P: p}, nil
}

// baseRandIOPS is the no-queue random request rate for transfers of
// szKB at the given streaming rate.
func (d *Device) baseRandIOPS(streamMBps float64) float64 {
	transferS := d.P.RandIOSizeKB / 1024 / streamMBps
	positionS := d.P.PositionMs / 1000
	return 1 / (positionS + transferS)
}

// RandReadIOPS returns the random-read service rate at queue depth q.
func (d *Device) RandReadIOPS(q float64) float64 {
	if q < 0 {
		q = 0
	}
	base := d.baseRandIOPS(d.P.SeqReadMBps)
	return base * (1 + d.P.ReadGain*q/(q+d.P.ReadGainHalf))
}

// RandWriteIOPS returns the random-write service rate at queue depth q,
// reflecting elevator sorting and merge opportunities.
func (d *Device) RandWriteIOPS(q float64) float64 {
	if q < 0 {
		q = 0
	}
	base := d.baseRandIOPS(d.P.SeqWriteMBps)
	return base * (1 + d.P.WriteGain*q/(q+d.P.WriteGainHalf))
}

// SeqReadIOPS returns the sequential-read request rate (SeqIOSizeKB
// requests back to back at streaming speed).
func (d *Device) SeqReadIOPS() float64 {
	return d.P.SeqReadMBps * 1024 / d.P.SeqIOSizeKB
}

// SeqWriteIOPS returns the sequential-write request rate.
func (d *Device) SeqWriteIOPS() float64 {
	return d.P.SeqWriteMBps * 1024 / d.P.SeqIOSizeKB
}

// OverloadFactor returns the service-rate divisor for a total outstanding
// queue of q requests: 1 below the overload knee, growing quadratically
// beyond it. This is what makes "more outstanding requests" stop paying
// off and produces the interior optimum CAPES hunts for.
func (d *Device) OverloadFactor(q float64) float64 {
	if q <= d.P.OverloadQueue {
		return 1
	}
	x := (q - d.P.OverloadQueue) / d.P.OverloadScale
	return 1 + x*x
}

// ServiceTime returns the mean seconds to service one request of the
// given class at queue depth q (the Process Time PI; its ratio to the
// best seen is the PT-ratio secondary indicator).
func (d *Device) ServiceTime(class Class, q float64) float64 {
	switch class {
	case RandRead:
		return 1 / d.RandReadIOPS(q)
	case RandWrite:
		return 1 / d.RandWriteIOPS(q)
	case SeqRead:
		return 1 / d.SeqReadIOPS()
	case SeqWrite:
		return 1 / d.SeqWriteIOPS()
	default:
		panic(fmt.Sprintf("disk: unknown class %d", class))
	}
}

// Class identifies a request class.
type Class int

// Request classes tracked separately by the server queues.
const (
	RandRead Class = iota
	RandWrite
	SeqRead
	SeqWrite
	NumClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case RandRead:
		return "rand-read"
	case RandWrite:
		return "rand-write"
	case SeqRead:
		return "seq-read"
	case SeqWrite:
		return "seq-write"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// IsRead reports whether the class moves data server→client.
func (c Class) IsRead() bool { return c == RandRead || c == SeqRead }

// BytesPerRequest returns the payload size for the class in bytes.
func (p Params) BytesPerRequest(c Class) float64 {
	if c == RandRead || c == RandWrite {
		return p.RandIOSizeKB * 1024
	}
	return p.SeqIOSizeKB * 1024
}

// IOPSAt returns the service rate for a class at queue depth q, without
// the overload factor (the server applies it to the shared device).
func (d *Device) IOPSAt(c Class, q float64) float64 {
	switch c {
	case RandRead:
		return d.RandReadIOPS(q)
	case RandWrite:
		return d.RandWriteIOPS(q)
	case SeqRead:
		return d.SeqReadIOPS()
	case SeqWrite:
		return d.SeqWriteIOPS()
	default:
		panic(fmt.Sprintf("disk: unknown class %d", c))
	}
}
