package simclock

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestDurationFromSeconds(t *testing.T) {
	got, err := DurationFromSeconds(0.5)
	if err != nil || got != 500*time.Millisecond {
		t.Fatalf("DurationFromSeconds(0.5) = %v, %v", got, err)
	}
	for _, sec := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		var ce *ChargeError
		if _, err := DurationFromSeconds(sec); !errors.As(err, &ce) {
			t.Fatalf("DurationFromSeconds(%v): want *ChargeError, got %v", sec, err)
		} else if ce.Error() == "" {
			t.Fatalf("DurationFromSeconds(%v): empty error string", sec)
		}
	}
}
