package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between the closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// p90 is the 90th percentile. Callers size their runs so that at least ten
// samples lie beyond it (see minIntervalSamples).
func p90(xs []float64) float64 { return quantile(xs, 0.9) }

// minIntervalSamples is the smallest sample count that leaves ten samples
// beyond the 90th percentile.
const minIntervalSamples = 100

// closedLoop calls op back to back, one call in flight, until the measuring
// time has passed and enough reports true — or, should operations keep
// failing, until three times the measuring time has passed. With minimal it
// stops after the first call.
func closedLoop(measure time.Duration, minimal bool, enough func() bool, op func()) {
	start := time.Now()
	for {
		op()
		el := time.Since(start)
		if minimal || (el >= measure && (enough() || el >= 3*measure)) {
			return
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mbps is megabytes (10^6 bytes) per second.
func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// usage is a process-wide resource snapshot: CPU from getrusage, heap bytes
// allocated from the runtime, and the GC share of CPU from runtime/metrics.
type usage struct {
	cpu      time.Duration
	alloc    uint64
	gcCPU    float64
	totalCPU float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail on Linux for a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var u usage
	u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u.alloc = m.TotalAlloc
	samples := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(samples)
	u.gcCPU = samples[0].Value.Float64()
	u.totalCPU = samples[1].Value.Float64()
	return u
}

// window accumulates the resource use of the timed regions of a run.
type window struct {
	cpu      time.Duration
	alloc    uint64
	gcCPU    float64
	totalCPU float64
}

// add accumulates the use since start.
func (w *window) add(start usage) {
	end := sampleUsage()
	w.cpu += end.cpu - start.cpu
	w.alloc += end.alloc - start.alloc
	w.gcCPU += end.gcCPU - start.gcCPU
	w.totalCPU += end.totalCPU - start.totalCPU
}

func (w *window) allocMB() float64 { return float64(w.alloc) / 1e6 }

// gcFrac is the GC's share of the CPU time the runtime accounted.
func (w *window) gcFrac() float64 {
	if w.totalCPU <= 0 {
		return 0
	}
	return w.gcCPU / w.totalCPU
}

// samples accumulates the end-to-end figures of measured operations.
type samples struct {
	frameMS, firstMS, runMS, dataMBps []float64
	// frames counts timesteps delivered.
	frames int
}

// add records one operation that ran from start to end and delivered its
// timesteps at the given times (zero: delivery time unknown, and the
// intervals next to it are left out), moving bytes.
func (s *samples) add(start, end time.Time, delivered []time.Time, bytes int64) {
	prev := start
	for t, at := range delivered {
		switch {
		case at.IsZero() || prev.IsZero():
		case t == 0:
			s.firstMS = append(s.firstMS, ms(at.Sub(start)))
		default:
			s.frameMS = append(s.frameMS, ms(at.Sub(prev)))
		}
		prev = at
	}
	wall := end.Sub(start)
	s.runMS = append(s.runMS, ms(wall))
	s.dataMBps = append(s.dataMBps, mbps(bytes, wall))
	s.frames += len(delivered)
}

// enough reports whether at least ten intervals lie beyond the 90th
// percentile.
func (s *samples) enough() bool { return len(s.frameMS) >= minIntervalSamples }

// setEndToEnd records the end-to-end metrics of an untraced run.
func (r *result) setEndToEnd(s *samples, w *window, setups []float64) {
	frames := float64(max(s.frames, 1))
	r.set("frame_ms", median(s.frameMS), "ms")
	r.set("frame_ms_p90", p90(s.frameMS), "ms")
	r.set("first_frame_ms", median(s.firstMS), "ms")
	r.set("run_ms", median(s.runMS), "ms")
	r.set("data_mbps", median(s.dataMBps), "MB/s")
	r.set("alloc_mb_per_frame", w.allocMB()/frames, "MB")
	r.set("cpu_ms_per_frame", ms(w.cpu)/frames, "ms")
	r.set("setup_s", median(setups), "s")
	r.set("ok_frac", float64(r.attempted-r.failed)/float64(r.attempted), "frac")
}

// traceOverhead compares a traced run's frame_ms and run_ms with the
// untraced ones: the mean of the two ratios, minus 1.
func traceOverhead(traced, untraced *samples) float64 {
	uf, ur := median(untraced.frameMS), median(untraced.runMS)
	if uf <= 0 || ur <= 0 {
		return 0
	}
	return (median(traced.frameMS)/uf+median(traced.runMS)/ur)/2 - 1
}
