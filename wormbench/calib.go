package main

import (
	"runtime"
	"slices"
)

// On a shared machine the same grid pass can take 30% more CPU time at
// one moment than at another: the benchmark's cores share caches with
// other tenants, so a cycle does less while they are busy.  A timed pass
// therefore interleaves a fixed reference kernel between its points and
// reports its CPU time scaled by how fast that kernel ran, so that a slow
// stretch of the host slows both and cancels out.  The kernel is the
// benchmark's own code, never the program's, so nothing a change to the
// program does moves it.

// calibOps is how many map operations one calibration call makes (about
// 30 ms of CPU).
const calibOps = 300_000

// calibRefS is the kernel's CPU seconds per call on the machine the
// benchmark was defined on; scaled times read as CPU seconds there.
const calibRefS = 0.030

// calibRecord is the kernel's heap record; both fields are payload, and
// its size is part of what calibRefS was measured with.
type calibRecord struct {
	hits, key int
}

// calibrate runs the reference kernel once and returns the process CPU
// seconds it took.  It collects the kernel's garbage before it returns, so
// none of it is charged to the next point.
func calibrate() float64 {
	c0 := cpuSeconds()
	if calibKernel() == 0 {
		panic("wormbench: calibration kernel kept no keys") // keeps the work from being optimised away
	}
	runtime.GC()
	return cpuSeconds() - c0
}

// calibKernel churns a map of heap records and sorts the keys left:
// pointer-heavy, branchy, allocating work like the simulator's, which
// unlike a pure arithmetic loop slows down about as much as the simulator
// does when the host is busy.  It is deterministic and returns how many
// keys it kept.
func calibKernel() int {
	m := map[int]*calibRecord{}
	x := uint64(7)
	for i := 0; i < calibOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := int(x>>48) & 8191
		if r, ok := m[k]; ok {
			r.hits++
			if r.hits&3 == 0 {
				delete(m, k)
			}
		} else {
			m[k] = &calibRecord{hits: i, key: k}
		}
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return len(keys)
}
