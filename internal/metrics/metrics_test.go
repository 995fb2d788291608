package metrics_test

import (
	"strings"
	"testing"
	"time"

	"github.com/carv-repro/teraheap-go/internal/metrics"
	"github.com/carv-repro/teraheap-go/internal/simclock"
)

func mkBreakdown(other, sd, minor, major time.Duration) simclock.Breakdown {
	c := simclock.New()
	c.Charge(simclock.Other, other)
	c.Charge(simclock.SerDesIO, sd)
	c.Charge(simclock.MinorGC, minor)
	c.Charge(simclock.MajorGC, major)
	return c.Breakdown()
}

func TestFormatBreakdownNormalizes(t *testing.T) {
	rows := []metrics.Row{
		{Name: "base", B: mkBreakdown(100*time.Millisecond, 0, 0, 0)},
		{Name: "half", B: mkBreakdown(50*time.Millisecond, 0, 0, 0)},
	}
	out := metrics.FormatBreakdown("t", rows, true)
	if !strings.Contains(out, "1.000") || !strings.Contains(out, "0.500") {
		t.Fatalf("normalization missing:\n%s", out)
	}
}

func TestFormatBreakdownOOM(t *testing.T) {
	rows := []metrics.Row{
		{Name: "dead", OOM: true},
		{Name: "live", B: mkBreakdown(time.Millisecond, 0, 0, 0)},
	}
	out := metrics.FormatBreakdown("t", rows, true)
	if !strings.Contains(out, "OOM") {
		t.Fatalf("no OOM marker:\n%s", out)
	}
	// Normalization base must skip the OOM row.
	if !strings.Contains(out, "1.000") {
		t.Fatalf("live row not normalized to itself:\n%s", out)
	}
}

func TestCSVBreakdown(t *testing.T) {
	rows := []metrics.Row{{Name: "a", B: mkBreakdown(1, 2, 3, 4)}}
	out := metrics.CSVBreakdown(rows)
	if !strings.HasPrefix(out, "name,total_ns") {
		t.Fatalf("missing header: %s", out)
	}
	if !strings.Contains(out, "a,10,1,2,3,4,0") {
		t.Fatalf("row wrong: %s", out)
	}
}

func TestFormatCDFQuantiles(t *testing.T) {
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = float64(i)
	}
	out := metrics.FormatCDF("x", vals)
	if !strings.Contains(out, "p50=50.0") {
		t.Fatalf("median wrong: %s", out)
	}
}

func TestSpeedup(t *testing.T) {
	if s := metrics.Speedup(100, 27); s < 72.9 || s > 73.1 {
		t.Fatalf("speedup = %v", s)
	}
	if metrics.Speedup(0, 10) != 0 {
		t.Fatal("zero baseline not handled")
	}
}
