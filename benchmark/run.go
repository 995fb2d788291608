package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/server"
)

// setupReps is how many times a run builds its input and runs the warm-up
// job; setup_s and live_heap_mb report the median.
const setupReps = 3

// job is one run of a workload configuration on a fresh session, with
// the host time of every layer call it made.
type job struct {
	ses    *rt.Session
	serve  *server.Stats
	pauses *pauseTimer // nil on untraced jobs

	start     time.Time
	spans     []span
	wall, cpu time.Duration
	cal       time.Duration // calibration kernel timed just before the job
	// Go heap activity during the job: traced jobs only.
	allocBytes, mallocs, gcCycles uint64

	answer, digest uint64
	err            error
}

// span is one timed call into a layer, in host time.
type span struct {
	name       string
	start, end time.Time
}

func (j *job) span(name string, f func()) {
	start := time.Now()
	f()
	j.spans = append(j.spans, span{name, start, time.Now()})
}

// session builds the job's runtime; traced jobs get the pause timer on the
// session's hook plane before any collection can run.
func (j *job) session(spec rt.Spec) *rt.Session {
	j.span("rt.session", func() { j.ses = rt.NewSession(spec) })
	if j.pauses != nil {
		j.ses.Runtime.Hooks().Register(j.pauses)
	}
	return j.ses
}

func (j *job) spanTime(name string) time.Duration {
	var d time.Duration
	for _, s := range j.spans {
		if s.name == name {
			d += s.end.Sub(s.start)
		}
	}
	return d
}

// runJob runs one job after a forced Go collection, so every job starts
// from the same host heap. A panic, a returned error, a latched fault or
// an OOM all fail the job.
func runJob(run runFn, in input, traced bool) *job {
	j := &job{}
	if traced {
		j.pauses = &pauseTimer{}
	}
	runtime.GC()
	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	cpu0 := cpuTime()
	j.start = time.Now()
	j.answer, j.err = call(run, in, j)
	if j.err == nil {
		j.ses.Device.DrainWriteback()
		if err := j.ses.Fault(); err != nil {
			j.err = err
		} else if err := j.ses.Runtime.OOM(); err != nil {
			j.err = err
		}
	}
	j.wall, j.cpu = time.Since(j.start), cpuTime()-cpu0
	if traced {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		j.allocBytes, j.mallocs, j.gcCycles = ms.TotalAlloc-ms0.TotalAlloc, ms.Mallocs-ms0.Mallocs, uint64(ms.NumGC-ms0.NumGC)
	}
	if j.err == nil {
		j.digest = simDigest(j)
	}
	return j
}

func call(run runFn, in input, j *job) (answer uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return run(in, j)
}

// cpuTime is the process's user+system CPU time, Go runtime threads
// included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runStats is everything one run measured.
type runStats struct {
	setups, setupCals []time.Duration // per setup repetition
	gens, liveHeap    []float64       // per setup repetition
	untraced, traced  []*job
	sim               map[string]float64 // simulated stats of the first correct job, which every job shares
	digest            uint64             // sim digest of that job
	profile           []byte             // traced half's CPU profile
	attempted, failed int
	errs              []string
}

// check counts a job and fails it unless it is healthy, reproduces the
// reference answer, and has the run's simulated digest. It then drops the
// job's session, so finished jobs do not pile up on the Go heap.
func (r *runStats) check(j *job, what string, answer uint64) {
	r.attempted++
	switch {
	case j.err != nil:
		r.fail(fmt.Sprintf("%s: %v", what, j.err))
	case j.answer != answer:
		r.fail(fmt.Sprintf("%s: answer %016x, reference %016x", what, j.answer, answer))
	case r.sim == nil:
		r.sim, r.digest = simMetrics(j), j.digest
	case j.digest != r.digest:
		r.fail(fmt.Sprintf("%s: sim digest %016x, first job %016x", what, j.digest, r.digest))
	}
	j.ses, j.serve = nil, nil
}

func (r *runStats) fail(msg string) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, msg)
	}
}

// measure runs one workload for the given budget. Set-up (input
// generation plus one warm-up job) repeats setupReps times. The reference
// job then fixes the answer every job must reproduce. With traced set,
// the budget is split: the first half runs untraced jobs, the second half
// traced ones under the CPU profiler. Each set-up repetition and each job
// is preceded by the calibration kernel.
func measure(w workload, seed uint64, budget time.Duration, traced bool) *runStats {
	r := &runStats{}
	var in input
	var answer uint64
	for i := 0; i < setupReps; i++ {
		r.setupCals = append(r.setupCals, calibrate())
		start := time.Now()
		in = w.gen(seed)
		gen := time.Since(start)
		warm := runJob(w.run, in, false)
		r.setups = append(r.setups, time.Since(start))
		r.gens = append(r.gens, gen.Seconds())
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(warm.ses)
		r.liveHeap = append(r.liveHeap, float64(ms.HeapAlloc)/(1<<20))
		if i == 0 {
			answer = warm.answer
			if w.ref != nil {
				ref := runJob(w.ref, in, false)
				r.attempted++
				if ref.err != nil {
					r.fail(fmt.Sprintf("reference job: %v", ref.err))
				}
				answer = ref.answer
			}
		}
		r.check(warm, "warm-up job", answer)
	}

	untracedBudget := budget
	if traced {
		untracedBudget = budget / 2
	}
	r.untraced = r.loop(w, in, answer, untracedBudget, false)
	if traced {
		stop, err := startProfile()
		if err != nil {
			r.fail(err.Error())
			return r
		}
		r.traced = r.loop(w, in, answer, budget-untracedBudget, true)
		r.profile = stop()
	}
	return r
}

// loop runs jobs back to back until the budget is spent, at least one.
func (r *runStats) loop(w workload, in input, answer uint64, budget time.Duration, traced bool) []*job {
	var jobs []*job
	start := time.Now()
	for len(jobs) == 0 || time.Since(start) < budget {
		var cal time.Duration
		// Labeled, so a running CPU profile leaves the kernel's samples out.
		pprof.Do(context.Background(), pprof.Labels("benchmark", "calibrate"), func(context.Context) {
			cal = calibrate()
		})
		j := runJob(w.run, in, traced)
		j.cal = cal
		r.check(j, fmt.Sprintf("job %d", len(jobs)+1), answer)
		jobs = append(jobs, j)
	}
	return jobs
}
