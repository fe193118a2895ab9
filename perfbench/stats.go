package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..1) of vals by linear
// interpolation.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	vals = slices.Sorted(slices.Values(vals))
	pos := p * float64(len(vals)-1)
	i := int(pos)
	if i+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	frac := pos - float64(i)
	return vals[i]*(1-frac) + vals[i+1]*frac
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// opLog records the ops of one measured window: when each completed,
// its latency where it has one, and the process's CPU time at every
// whole second, so that the window can be cut into segments afterwards.
type opLog struct {
	start time.Time
	end   time.Time // set by close
	done  []time.Time
	lat   []float64       // nanoseconds; negative: the op has no latency sample
	cpu   []time.Duration // process CPU at the start and at each whole second since
}

func newOpLog() *opLog {
	return &opLog{start: time.Now(), cpu: []time.Duration{cpuTime()}}
}

// add books one completed op. latNs may be negative and set later.
func (l *opLog) add(done time.Time, latNs float64) {
	for done.Sub(l.start) >= time.Duration(len(l.cpu))*time.Second {
		l.cpu = append(l.cpu, cpuTime())
	}
	l.done = append(l.done, done)
	l.lat = append(l.lat, latNs)
}

// close ends the window.
func (l *opLog) close() {
	l.end = time.Now()
	if len(l.cpu) < 2 {
		// Under a second long (the smoke test): one segment, start to end.
		l.start = l.end.Add(-time.Second)
		l.cpu = append(l.cpu, cpuTime())
	}
}

// summary is a window's end-to-end numbers.
type summary struct {
	OpsPerS, P50Ms, P90Ms, CPUMsPerOp float64
	Ops, Latencies, Segments          int
}

// summarize reduces the window to medians over consecutive segments, so
// that a stall of a second or two (another tenant of the host, a long
// GC) moves the result little: throughput is the median of the
// segments' rates, the latency percentiles are the medians of the
// segments' percentiles, CPU per op the median of the segments' ratios.
// A segment is the least whole number of seconds that holds 20 ops on
// average; a window too short for three of them is taken as one.
func (l *opLog) summarize() summary {
	sum := summary{Ops: len(l.done)}
	whole := len(l.cpu) - 1 // whole seconds with a CPU reading at both ends
	if whole < 1 || len(l.done) == 0 {
		return sum
	}
	inWhole := 0
	for _, d := range l.done {
		if d.Sub(l.start) < time.Duration(whole)*time.Second {
			inWhole++
		}
	}
	segSec := 1
	if perSec := float64(inWhole) / float64(whole); perSec < 20 {
		segSec = int(20/perSec) + 1
	}
	if whole/segSec < 3 {
		segSec = whole
	}
	sum.Segments = whole / segSec
	seg := time.Duration(segSec) * time.Second
	counts := make([]float64, sum.Segments)
	last := make([]time.Time, sum.Segments) // completion of each segment's last op
	lats := make([][]float64, sum.Segments)
	for i, d := range l.done {
		if k := int(d.Sub(l.start) / seg); k < sum.Segments {
			counts[k]++
			last[k] = d
			if l.lat[i] >= 0 {
				lats[k] = append(lats[k], l.lat[i])
				sum.Latencies++
			}
		}
	}
	var rates, p50s, p90s, cpus []float64
	prev := l.start
	for k, n := range counts {
		if n > 0 {
			// n ops ended between the previous segment's last op and this
			// one's: an exact rate, where n per segment length would only
			// take whole-number steps.
			rates = append(rates, n/last[k].Sub(prev).Seconds())
			prev = last[k]
			used := l.cpu[(k+1)*segSec] - l.cpu[k*segSec]
			cpus = append(cpus, float64(used.Microseconds())/1e3/n)
		}
		if len(lats[k]) > 0 {
			p50s = append(p50s, percentile(lats[k], 0.5)/1e6)
			p90s = append(p90s, percentile(lats[k], 0.9)/1e6)
		}
	}
	sum.OpsPerS, sum.P50Ms, sum.P90Ms, sum.CPUMsPerOp = median(rates), median(p50s), median(p90s), median(cpus)
	return sum
}

// report writes the summary into a run's end-to-end metrics.
func (sum summary) report(m *metricSet) {
	m.set("ops_per_s", sum.OpsPerS)
	m.set("op_p50_ms", sum.P50Ms)
	m.set("op_p90_ms", sum.P90Ms)
	m.set("cpu_ms_per_op", sum.CPUMsPerOp)
	m.samples["ops_per_s"], m.samples["cpu_ms_per_op"] = sum.Ops, sum.Ops
	m.samples["op_p50_ms"], m.samples["op_p90_ms"] = sum.Latencies, sum.Latencies
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapLiveMB forces a collection and returns what survived it.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// procCounters is a snapshot of the allocation and GC counters whose
// deltas over a window become the proc.* metrics.
type procCounters struct {
	mallocs, bytes, pauseNs uint64
}

func readProcCounters() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs}
}

// timeOp times f in `rounds` rounds of `batch` calls each and returns
// the per-call nanoseconds of every round, so that sub-microsecond calls
// are not swamped by the clock read.
func timeOp(rounds, batch int, f func()) []float64 {
	f() // warm caches and lazy buffers
	out := make([]float64, rounds)
	for r := range out {
		start := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		out[r] = float64(time.Since(start).Nanoseconds()) / float64(batch)
	}
	return out
}

// allocsPer counts heap allocations per call of f, as
// testing.AllocsPerRun does, without pulling the testing package into
// the benchmark binary.
func allocsPer(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
