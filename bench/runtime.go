package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
)

// runtimeSnap is the process's resource use so far.
type runtimeSnap struct {
	cpuS       float64 // user + system CPU seconds
	allocBytes float64 // cumulative heap bytes allocated
	gcCPUS     float64 // CPU seconds the collector used
	numGC      float64
}

// runtimeDelta is the resource use of one phase.
type runtimeDelta runtimeSnap

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func readRuntime() runtimeSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	return runtimeSnap{
		cpuS:       tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		allocBytes: float64(samples[0].Value.Uint64()),
		gcCPUS:     samples[1].Value.Float64(),
		numGC:      float64(samples[2].Value.Uint64()),
	}
}

func (s runtimeSnap) since(before runtimeSnap) runtimeDelta {
	return runtimeDelta{
		cpuS:       s.cpuS - before.cpuS,
		allocBytes: s.allocBytes - before.allocBytes,
		gcCPUS:     s.gcCPUS - before.gcCPUS,
		numGC:      s.numGC - before.numGC,
	}
}

// peakRSSMB is the process's resident-set high-water mark. Linux
// reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// pinProcs fixes scheduler parallelism so a bigger box does not change
// what is measured; the reference box has two cores.
func pinProcs() int {
	const procs = 2
	runtime.GOMAXPROCS(procs)
	return procs
}
