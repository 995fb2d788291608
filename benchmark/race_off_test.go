//go:build !race

package main

// raceEnabled reports whether the race detector is compiled in. The smoke
// and figure-agreement tests run every workload end to end and skip under
// it: the benchmark is single-threaded, so the detector adds nothing but a
// ~10x slowdown.
const raceEnabled = false
