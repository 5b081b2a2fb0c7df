package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
)

// cpuSeconds returns the process's CPU time so far (user + system, all
// threads), which unlike wall time does not count the time other tenants
// of a shared machine hold the cores.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("wormbench: getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// Runtime metrics the benchmark reads.
const (
	heapAllocs = "/gc/heap/allocs:bytes"      // bytes allocated since start-up
	gcCycles   = "/gc/cycles/total:gc-cycles" // GC cycles completed
	heapLive   = "/gc/heap/live:bytes"        // heap the last GC cycle found live
)

func runtimeMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// median returns the median of xs (the mean of the middle pair for even
// lengths); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
