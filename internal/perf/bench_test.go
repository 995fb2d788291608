package perf

import (
	"testing"
)

// BenchmarkMicros runs every microbenchmark as a sub-benchmark:
// `go test -run '^$' -bench . ./internal/perf/`.
func BenchmarkMicros(b *testing.B) {
	for _, m := range Micros() {
		b.Run(m.Name, func(b *testing.B) {
			op := m.Setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// TestMicroAllocPins locks in the steady-state allocation counts of every
// hot loop. The scavenge and card-scan zeros are acceptance criteria: a
// regression here means a per-cycle allocation crept back into the
// collector's inner loops.
func TestMicroAllocPins(t *testing.T) {
	pins := map[string]float64{
		"pagecache_touch_hit":        0,
		"pagecache_touch_miss_evict": 0,
		"pagecache_invalidate":       0,
		"h2_touch_run":               0,
		"rootset_create_release":     1, // the Handle object itself
		"minor_gc_scavenge":          0,
		"minor_gc_scavenge_gang4":    0,
		"minor_gc_scavenge_ng2c":     0,
		"card_table_scan":            0,
		"writeback_submit_drain":     0,
		"vm_load_h1":                 0,
		"vm_load_h2":                 0,
		"prim_run_h2":                0,
		"copy_object":                0,
		"major_adjust_lookup":        0,
		"major_gc_full":              0,
		"giraph_cdlp_compute":        0,
	}
	for _, m := range Micros() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			want, ok := pins[m.Name]
			if !ok {
				t.Fatalf("no alloc pin registered for %q", m.Name)
			}
			op := m.Setup()
			if got := testing.AllocsPerRun(100, op); got > want {
				t.Errorf("%s: %v allocs/op, pinned at %v", m.Name, got, want)
			}
		})
	}
}

// TestMicrosHaveUniqueStableNames guards the micro names (the sub-benchmark keys).
func TestMicrosHaveUniqueStableNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Micros() {
		if m.Name == "" || seen[m.Name] {
			t.Fatalf("duplicate or empty micro name %q", m.Name)
		}
		seen[m.Name] = true
	}
	if want := 17; len(seen) != want {
		t.Fatalf("expected %d micros, got %d", want, len(seen))
	}
}
