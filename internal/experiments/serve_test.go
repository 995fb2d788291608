package experiments

import (
	"strings"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/server"
)

// serveTestConfig shrinks the serve workload so a full sweep stays fast
// in tests while still spanning warmup GCs and an H2-resident tail.
func serveTestConfig() server.Config {
	c := server.DefaultConfig()
	c.Requests = 4000
	c.Keys = 1024
	c.Clients = 50000
	return c
}

// TestServeSweepCoversAllKinds: the sweep produces one row per runtime
// kind × rate, none of them OOM or faulted at the default sizing, and the
// report carries the SLO columns the figure is about.
func TestServeSweepCoversAllKinds(t *testing.T) {
	res := ServeSweep(serveTestConfig(), nil)
	wantRows := len(rt.Kinds()) * len(DefaultServeRates())
	if len(res.Rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(res.Rows), wantRows)
	}
	for _, row := range res.Rows {
		if row.OOM || row.Fault {
			t.Errorf("row %s ended %v at default sizing", row.Name, row.Note)
		}
		if row.Served == 0 {
			t.Errorf("row %s served nothing", row.Name)
		}
	}
	for _, col := range []string{"shed", "retries", "sloViol", "p999"} {
		if !strings.Contains(res.Format(), col) {
			t.Errorf("serve report missing column %q", col)
		}
	}
	if !strings.Contains(res.CSV(), "slo_viol") {
		t.Errorf("serve CSV missing slo_viol column")
	}
}

// TestServeSweepSameSeedIsDeterministic: two sweeps under the same config
// render byte-identical reports — the property the CI two-process cmp
// job pins end to end.
func TestServeSweepSameSeedIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full serve sweeps in -short mode")
	}
	a := ServeSweep(serveTestConfig(), nil)
	b := ServeSweep(serveTestConfig(), nil)
	if a.Format() != b.Format() || a.CSV() != b.CSV() {
		t.Fatalf("same-seed sweeps diverged:\n--- a ---\n%s\n--- b ---\n%s", a.Format(), b.Format())
	}
}

// TestChaosServeDegradesGracefully is the serve plane's robustness claim:
// the chaos schedule under the default brownout + region-fail plan
// completes with zero panics, sheds and retries under pressure, reports
// SLO violations per configuration, and shows throughput recovering
// after the breaker re-admits (or fences off) H2.
func TestChaosServeDegradesGracefully(t *testing.T) {
	res := ChaosServe(nil, server.DefaultConfig())
	if res.Panicked() {
		t.Fatalf("chaos-serve panicked:\n%s", res.Format())
	}
	_, _, _, _, oom, _ := res.Counts()
	if oom != 0 {
		t.Fatalf("chaos-serve OOMed at default sizing:\n%s", res.Format())
	}
	var shed, retries int64
	for _, run := range res.Runs {
		if run.Serve == nil {
			continue
		}
		shed += run.Serve.Shed
		retries += run.Serve.Retries
	}
	if shed == 0 {
		t.Errorf("no sheds across the chaos-serve schedule:\n%s", res.Format())
	}
	if retries == 0 {
		t.Errorf("no retries across the chaos-serve schedule:\n%s", res.Format())
	}
	report := res.Format()
	if !strings.Contains(report, "slo-viol") {
		t.Errorf("report missing per-configuration SLO violations:\n%s", report)
	}
	if !strings.Contains(report, "throughput: recovered") {
		t.Errorf("report missing a recovered-throughput verdict:\n%s", report)
	}
	if strings.Contains(report, "NOT RECOVERED") {
		t.Errorf("a run's throughput never recovered:\n%s", report)
	}
}

// TestChaosServeSameSeedIsDeterministic: the chaos-serve report is
// byte-stable under the same plan and config.
func TestChaosServeSameSeedIsDeterministic(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two full chaos-serve schedules")
	}
	a := ChaosServe(nil, server.DefaultConfig())
	b := ChaosServe(nil, server.DefaultConfig())
	if a.Format() != b.Format() {
		t.Fatalf("same-seed chaos-serve diverged:\n--- a ---\n%s\n--- b ---\n%s", a.Format(), b.Format())
	}
}
