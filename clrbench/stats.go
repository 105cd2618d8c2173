package main

import (
	"math"
	goruntime "runtime"
	"slices"
	"syscall"
	"time"
)

// measurement is what a workload run hands back: the two metric sets,
// the attempt counts and the output-check verdict.
type measurement struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	checks    *checks
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of a sorted sample by the
// nearest-rank method.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	idx = max(0, min(idx, len(sorted)-1))
	return sorted[idx]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSnap is the part of runtime.MemStats the proc.* metrics use.
type memSnap struct {
	mallocs, allocBytes uint64
	numGC               uint32
	pauseNs             uint64
}

func readMem() memSnap {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}

// since is the change from an earlier snapshot a to s.
func (s memSnap) since(a memSnap) memSnap {
	return memSnap{s.mallocs - a.mallocs, s.allocBytes - a.allocBytes, s.numGC - a.numGC, s.pauseNs - a.pauseNs}
}

// plus sums two changes.
func (s memSnap) plus(b memSnap) memSnap {
	return memSnap{s.mallocs + b.mallocs, s.allocBytes + b.allocBytes, s.numGC + b.numGC, s.pauseNs + b.pauseNs}
}

// procLayers reports the proc.* metrics for ops operations.
func procLayers(out map[string]float64, d memSnap, ops float64) {
	out["proc.allocs_per_op"] = ratio(float64(d.mallocs), ops)
	out["proc.alloc_bytes_per_op"] = ratio(float64(d.allocBytes), ops)
	out["proc.gc_cycles"] = float64(d.numGC)
	out["proc.gc_pause_ms"] = float64(d.pauseNs) / 1e6
}

// heapMiB forces a collection and returns the in-use heap in MiB.
func heapMiB() float64 {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
