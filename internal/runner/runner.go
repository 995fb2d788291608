// Package runner provides the deterministic parallel executor for the
// experiment suite. Every simulated run is a fully self-contained
// instance (its own simclock, heap, collector, and device models), so
// the §6-§7 figure suite is embarrassingly parallel: the executor fans
// an ordered slice of independent jobs out across worker goroutines and
// merges results back in submission order, making all formatted figure
// output byte-identical to serial execution.
//
// The design is deliberately work-stealing-free: workers claim the next
// unclaimed index from a shared atomic cursor and write the result into
// that index's slot. Which worker runs which job varies between
// executions; the result slice never does. This is the same "one
// deterministic task per worker, merge in a fixed order" discipline
// Parallel Scavenge applies to its GC worker threads.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DoSafe runs fn(0..n-1) like Do, but a panicking job is converted into a
// result by onPanic(i, panicValue) instead of re-panicking: one failed run
// fills its own slot with a failed-run result and the rest of the suite
// completes. Result ordering is identical to Do — onPanic's value lands at
// the panicking job's index, so merged output stays deterministic.
func DoSafe[T any](n, workers int, fn func(i int) T, onPanic func(i int, v any) T) []T {
	return Do(n, workers, func(i int) (out T) {
		defer func() {
			if r := recover(); r != nil {
				out = onPanic(i, r)
			}
		}()
		return fn(i)
	})
}

// panicValue carries a worker panic back to the submitting goroutine.
type panicValue struct {
	idx int
	val any
}

// Do runs fn(0..n-1) across at most workers goroutines and returns the
// results in index order. workers <= 0 means GOMAXPROCS; a single worker
// (or a single job) runs inline with no goroutines at all, so serial
// execution is exactly the plain loop it replaces.
//
// If any job panics, Do re-panics on the calling goroutine with the
// panic value of the lowest submitted index that failed — again matching
// what a serial loop would have surfaced first.
func Do[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			results[i] = fn(i)
		}
		return results
	}

	var (
		next    atomic.Int64 // shared claim cursor
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panics  []panicValue
	)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				panics = append(panics, panicValue{idx: i, val: r})
				panicMu.Unlock()
			}
		}()
		results[i] = fn(i)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	if len(panics) > 0 {
		first := panics[0]
		for _, p := range panics[1:] {
			if p.idx < first.idx {
				first = p
			}
		}
		panic(first.val)
	}
	return results
}
