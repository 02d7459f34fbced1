package main

import (
	"runtime"
	"time"
)

// The reference host (2 shared vCPUs of an Intel Xeon) changes speed as
// co-tenants load it, by up to 1.7x within an hour. So before the first
// set-up and after every pass, never while the workload runs, the bench
// times a fixed kernel, and reports setup_s and wall_s at the kernel's
// nominal speed: a time t measured while the kernel took k is reported as
// t × (probeNominal ÷ k)^2. Timing the kernel only between passes, after
// runtime.GC, keeps the reading independent of the code under test: none
// of its work, allocation or GC is running then.
//
// The square is measured, not chosen: the simulator waits on memory and
// goroutine hand-offs, and slows more steeply than the kernel. Over four
// ten-seed sweeps, log(wall time per message) against log(kernel time) had
// slopes of 2.3 to 2.8, one per workload (README.md); 2 is the round value
// below all of them.
// probeNominal only sets the unit, and every commit is scaled by the same
// one; it is close to the kernel's time on the reference host, so reported
// seconds stay near raw seconds there. The raw times and the readings are
// in the detail line.
const (
	probeSamples = 25
	probeNominal = 5e-3
)

// probeHost returns the kernel's median time over probeSamples runs.
func probeHost() float64 {
	runtime.GC()
	samples := make([]float64, probeSamples)
	for i := range samples {
		t0 := time.Now()
		probeSink ^= kernel(uint64(i))
		samples[i] = time.Since(t0).Seconds()
	}
	return quantile(samples, 0.5)
}

// hostFactor scales a time measured while the kernel took k seconds to the
// nominal host speed.
func hostFactor(k float64) float64 {
	f := probeNominal / k
	return f * f
}

// probeSink keeps the kernel's results live.
var probeSink uint64

// kernel is 2²¹ xorshift steps: no memory traffic, so it reads the core's
// speed, not the program's.
func kernel(x uint64) uint64 {
	x |= 1
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}
