package runner_test

import (
	"sync/atomic"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/runner"
)

func TestDoReturnsResultsInSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got := runner.Do(100, workers, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestDoRunsEveryJobExactlyOnce(t *testing.T) {
	var calls [64]atomic.Int64
	runner.Do(64, 8, func(i int) struct{} {
		calls[i].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("job %d ran %d times", i, n)
		}
	}
}

func TestDoEmptyAndSingle(t *testing.T) {
	if got := runner.Do(0, 4, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
	if got := runner.Do(1, 4, func(i int) int { return 7 }); len(got) != 1 || got[0] != 7 {
		t.Fatalf("n=1: got %v", got)
	}
}

func TestDoPropagatesLowestIndexPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r != "boom-2" {
			t.Fatalf("recovered %v, want boom-2", r)
		}
	}()
	runner.Do(8, 4, func(i int) int {
		if i == 2 || i == 5 {
			// Both panic; the lowest submitted index must win so the
			// failure surfaced matches serial execution.
			panic("boom-" + string(rune('0'+i)))
		}
		return i
	})
	t.Fatal("expected panic")
}

func TestDoSafeConvertsPanicToResult(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		got := runner.DoSafe(8, workers, func(i int) string {
			if i == 3 {
				panic("job-3 exploded")
			}
			return "ok"
		}, func(i int, v any) string {
			return "failed: " + v.(string)
		})
		if len(got) != 8 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			want := "ok"
			if i == 3 {
				want = "failed: job-3 exploded"
			}
			if v != want {
				t.Fatalf("workers=%d: result[%d] = %q, want %q", workers, i, v, want)
			}
		}
	}
}

func TestDoSafeKeepsDeterministicOrderAcrossPanics(t *testing.T) {
	// Several panicking jobs interleaved with healthy ones: every slot must
	// hold its own job's outcome regardless of worker scheduling.
	mk := func(workers int) []int {
		return runner.DoSafe(50, workers, func(i int) int {
			if i%7 == 0 {
				panic(i)
			}
			return i * 10
		}, func(i int, v any) int {
			return -v.(int)
		})
	}
	want := mk(1)
	for _, workers := range []int{2, 8} {
		got := mk(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}
