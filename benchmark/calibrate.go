package main

import "time"

// calRef is the calibration kernel's time on an idle reference host (a
// 2-vCPU Xeon VM).
const calRef = 24 * time.Millisecond

// calibrate times a fixed kernel of dependent integer arithmetic. Hosts
// that run the benchmark are shared, and their speed drifts by tens of
// percent over minutes; timing the kernel next to every job lets a run
// report its jobs relative to the host's speed at that moment. The kernel
// belongs to the benchmark, not to the program, so a change to the program
// cannot move it.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 8_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x *= 0x9E3779B97F4A7C15
	}
	d := time.Since(start)
	calSink = x
	return d
}

// calSink keeps the kernel's result live, so the compiler cannot drop it.
var calSink uint64

// calibratedSeconds scales a host time d, measured next to a kernel run
// that took cal, to seconds on the reference host. Across ten-seed sweeps
// at different host loads, the simulator's slowdown was close to the
// square of the kernel's (log-log slope 2.0 to 2.25, correlation 0.82 to
// 0.96): contention costs it cache and memory bandwidth as well as cycles.
// Hence the exponent.
func calibratedSeconds(d, cal time.Duration) float64 {
	s := calRef.Seconds() / cal.Seconds()
	return d.Seconds() * s * s
}
