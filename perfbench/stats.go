package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// nsQuantile is quantile over int64 nanosecond samples, in the unit
// given by div (1e3 for µs, 1e6 for ms). The samples are left sorted.
func nsQuantile(ns []int64, q, div float64) float64 {
	if len(ns) == 0 {
		return math.NaN()
	}
	slices.Sort(ns)
	pos := q * float64(len(ns)-1)
	lo := int(pos)
	if lo >= len(ns)-1 {
		return float64(ns[len(ns)-1]) / div
	}
	v := float64(ns[lo]) + (pos-float64(lo))*float64(ns[lo+1]-ns[lo])
	return v / div
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample reads the counters the benchmark reports: bytes allocated,
// GC cycles, the GC CPU the runtime estimates, and the process CPU.
type rtSample struct {
	allocBytes, gcCycles, gcCPU float64
	cpu                         time.Duration
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: val(0), gcCycles: val(1), gcCPU: val(2), cpu: cpuTime()}
}

// heapObjects reads the live heap object bytes, for the peak sampler.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records the peak live heap while it runs; stop returns the
// peak in bytes after the sampling goroutine has exited.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		peak := heapObjects()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.done <- max(peak, heapObjects())
				return
			case <-t.C:
				peak = max(peak, heapObjects())
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.done
}
