package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"fig99"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown experiment wrote to stdout: %q", stdout.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown experiment "fig99"`) {
		t.Errorf("stderr missing unknown-experiment message:\n%s", msg)
	}
	// The error must list the valid subcommands.
	for _, want := range []string{"fig6-spark", "fig13b", "table5", "ablation-sizeseg", "all"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr usage missing subcommand %q:\n%s", want, msg)
		}
	}
}

func TestUnknownWorkloadArg(t *testing.T) {
	for _, sub := range []string{"fig6-spark", "fig6-giraph"} {
		var stdout, stderr strings.Builder
		if code := run([]string{sub, "BOGUS"}, &stdout, &stderr); code != 2 {
			t.Fatalf("%s BOGUS: exit code = %d, want 2", sub, code)
		}
		if !strings.Contains(stderr.String(), `unknown`) || !strings.Contains(stderr.String(), "BOGUS") {
			t.Errorf("%s BOGUS: stderr missing workload error:\n%s", sub, stderr.String())
		}
	}
}

func TestNoArgsUsage(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage: teraheap-bench") {
		t.Errorf("stderr missing usage:\n%s", stderr.String())
	}
}

func TestBadFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-nosuchflag", "fig7"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestNegativeJobsRejected pins the -j validation: negative worker counts
// are a usage error, not a silent reset, so typos fail fast.
func TestNegativeJobsRejected(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-j", "-2", "fig7"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr:\n%s)", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("-j -2 ran the experiment anyway: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "-j -2") {
		t.Errorf("stderr missing -j error:\n%s", stderr.String())
	}
}

// TestNegativeGCWorkersRejected mirrors the -j validation for the gang
// size: values below 1 are a usage error, not a silent normalization.
func TestNegativeGCWorkersRejected(t *testing.T) {
	for _, bad := range []string{"0", "-3"} {
		var stdout, stderr strings.Builder
		if code := run([]string{"-gc-workers", bad, "fig7"}, &stdout, &stderr); code != 2 {
			t.Fatalf("-gc-workers %s: exit code = %d, want 2 (stderr:\n%s)", bad, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-gc-workers %s ran the experiment anyway: %q", bad, stdout.String())
		}
		if !strings.Contains(stderr.String(), "-gc-workers "+bad) {
			t.Errorf("stderr missing -gc-workers error:\n%s", stderr.String())
		}
	}
}

// TestNegativeWritebackDepthRejected pins the -wb-depth validation.
func TestNegativeWritebackDepthRejected(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-wb-depth", "-1", "fig7"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr:\n%s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-wb-depth -1") {
		t.Errorf("stderr missing -wb-depth error:\n%s", stderr.String())
	}
}

// TestGCWorkersOneIsDefaultOutput pins the byte-identity contract: an
// explicit -gc-workers 1 produces exactly the default fig7 output.
func TestGCWorkersOneIsDefaultOutput(t *testing.T) {
	var plain, explicit strings.Builder
	var stderr strings.Builder
	if code := run([]string{"fig7"}, &plain, &stderr); code != 0 {
		t.Fatalf("plain fig7 exit = %d (stderr:\n%s)", code, stderr.String())
	}
	if code := run([]string{"-gc-workers", "1", "fig7"}, &explicit, &stderr); code != 0 {
		t.Fatalf("-gc-workers 1 fig7 exit = %d (stderr:\n%s)", code, stderr.String())
	}
	if plain.String() != explicit.String() {
		t.Errorf("-gc-workers 1 diverged from default output")
	}
}

// TestGCWorkersDeterministicAcrossRuns pins same-seed byte-identity at a
// parallel gang, with the verifier on and again under fault injection.
func TestGCWorkersDeterministicAcrossRuns(t *testing.T) {
	cases := [][]string{
		{"-gc-workers", "4", "-verify", "fig7"},
		{"-gc-workers", "4", "-fault", "seed=7,dev-err=0.05,max-retries=3", "fig7"},
	}
	for _, args := range cases {
		var a, b, stderr strings.Builder
		codeA := run(args, &a, &stderr)
		codeB := run(args, &b, &stderr)
		if codeA != codeB {
			t.Fatalf("%v: exit codes diverged %d vs %d", args, codeA, codeB)
		}
		if a.String() != b.String() {
			t.Errorf("%v: output not deterministic across runs", args)
		}
		if a.Len() == 0 {
			t.Errorf("%v: no output", args)
		}
	}
}

// TestSuiteCoversRegisteredExperiments pins that each suite entry is
// reachable as a subcommand spelled exactly like its "all" entry.
func TestSuiteNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range suite {
		if seen[e.name] {
			t.Errorf("duplicate suite entry %q", e.name)
		}
		seen[e.name] = true
	}
}

// TestSeveralFiguresRunInOrder pins that every figure named runs, in
// order: two suite figures print exactly the two separate runs' output,
// and an unknown name among them exits 2 before any figure runs. It uses
// two of the cheapest figures; the path is the same for any suite name.
func TestSeveralFiguresRunInOrder(t *testing.T) {
	figs := []string{"ablation-sizeseg", "fig7"}
	var want strings.Builder
	for _, f := range figs {
		var stdout, stderr strings.Builder
		if code := run([]string{f}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit code = %d, want 0 (stderr:\n%s)", f, code, stderr.String())
		}
		want.WriteString(stdout.String())
	}
	var stdout, stderr strings.Builder
	if code := run(figs, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit code = %d, want 0 (stderr:\n%s)", figs, code, stderr.String())
	}
	if stdout.String() != want.String() {
		t.Errorf("%v printed %d bytes, want the %d bytes of the two separate runs", figs, stdout.Len(), want.Len())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"fig12a", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("fig12a nope: exit code = %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("fig12a nope ran a figure before rejecting the name:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), `unknown experiment "nope"`) {
		t.Errorf("stderr missing unknown-experiment message:\n%s", stderr.String())
	}
}

func TestBadFaultPlan(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-fault", "seed=1,bogus=3", "fig7"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-fault") {
		t.Errorf("stderr missing -fault error:\n%s", stderr.String())
	}
}

// TestDuplicateFaultPlanKey pins the duplicate-key contract: a plan that
// repeats a key is a usage error (exit 2) whose message names the
// offending token, never a silent last-one-wins.
func TestDuplicateFaultPlanKey(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-fault", "seed=1,dev-err=0.1,seed=2", "fig7"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "duplicate plan key") || !strings.Contains(stderr.String(), `"seed=2"`) {
		t.Errorf("stderr does not name the duplicate token:\n%s", stderr.String())
	}
}

// TestFig7CleanExitsZero pins the no-fault contract: a healthy fig7 run
// prints its report and exits 0.
func TestFig7CleanExitsZero(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"fig7"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr:\n%s)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Fig 7") {
		t.Errorf("stdout missing Fig 7 report:\n%s", stdout.String())
	}
}

// TestFig7UnderFatalFaultsExitsOneWithResults drives fig7 into a latched
// persistent device failure: the run must not panic, the table must still
// print (partial results), and the exit code must be 1.
func TestFig7UnderFatalFaultsExitsOneWithResults(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-verify", "-fault", "seed=1,dev-err=0.9,max-retries=2", "fig7"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr:\n%s)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Fig 7") {
		t.Errorf("stdout missing partial Fig 7 report:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "OOM/faulted/panicked") {
		t.Errorf("stderr missing degraded-suite notice:\n%s", stderr.String())
	}
}

// TestRunSubcommandGolden pins the "run" subcommand's printer to the
// output of the single-run binaries it replaced (sparkrun -workload PR
// -runtime th -dram 80 and giraphrun -workload CDLP -mode ooc -dram 85).
func TestRunSubcommandGolden(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		golden string
	}{
		{[]string{"run", "spark", "-workload", "PR", "-runtime", "th", "-dram", "80"}, "run_spark_pr_th_80.golden"},
		{[]string{"run", "giraph", "-workload", "CDLP", "-mode", "ooc", "-dram", "85"}, "run_giraph_cdlp_ooc_85.golden"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit code = %d, want 0 (stderr:\n%s)", tc.args, code, stderr.String())
		}
		if stdout.String() != string(want) {
			t.Errorf("%v: output diverged from %s:\n--- got ---\n%s--- want ---\n%s", tc.args, tc.golden, stdout.String(), want)
		}
	}
}

// TestRunSubcommandOutcomes: an OOM run prints its outcome and exits 1
// through the shared degraded-run path; malformed run arguments are
// usage errors.
func TestRunSubcommandOutcomes(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"run", "spark", "-runtime", "ps", "-dram", "32"}, &stdout, &stderr); code != 1 {
		t.Fatalf("OOM run: exit code = %d, want 1 (stderr:\n%s)", code, stderr.String())
	}
	if stdout.String() != "PR/spark-sd/32GB: OUT OF MEMORY\n" {
		t.Errorf("OOM run stdout = %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "1 run(s) ended OOM/faulted/panicked") {
		t.Errorf("OOM run stderr missing degraded-run notice:\n%s", stderr.String())
	}
	for _, args := range [][]string{
		{"run"},
		{"run", "flink"},
		{"run", "spark", "-runtime", "warp"},
		{"run", "spark", "-device", "tape"},
		{"run", "spark", "-mode", "ooc"},
		{"run", "giraph", "-mode", "disk"},
		{"run", "giraph", "-device", "nvm"},
		{"run", "giraph", "extra"},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code = %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote to stdout: %q", args, stdout.String())
		}
	}
}

// TestChaosSubcommand runs the chaos schedule under a survivable plan: it
// must exit 0 (faulted runs are expected; only panics fail it) and print
// the outcome summary.
func TestChaosSubcommand(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-fault", "seed=1,dev-err=0.02,wb-fail=0.05,torn=0.05,h2-exhaust=0.02", "chaos"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr:\n%s\nstdout:\n%s)", code, stderr.String(), stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{"== chaos:", "verifier on", "panicked=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos report missing %q:\n%s", want, out)
		}
	}
}

// TestChaosRecoveredOnlyExitsZero pins the chaos exit contract from the
// self-healing side: a schedule whose runs end RECOVERED (faults absorbed
// by salvage, no panic, no OOM) is a robustness success and exits 0 —
// recovery working as designed must not read as a CI failure.
func TestChaosRecoveredOnlyExitsZero(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-fault", "seed=1,region-fail=0.02,wb-fail=0.05,torn=0.05", "chaos"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 for a recovered-only schedule (stderr:\n%s)", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "RECOVERED") {
		t.Fatalf("schedule did not exercise recovery:\n%s", out)
	}
	if !strings.Contains(out, "panicked=0") || !strings.Contains(out, "oom=0") {
		t.Errorf("summary missing zero panic/OOM counters:\n%s", out)
	}
}

// TestServeMalformedConfigExitsTwo: serve config errors are usage errors
// (exit 2) naming the offending knob, mirroring -fault plan parsing.
func TestServeMalformedConfigExitsTwo(t *testing.T) {
	for _, dsl := range []string{"speed=1", "rate=60000,rate=1", "zipf=NaN", "deadline=-2ms"} {
		var stdout, stderr strings.Builder
		if code := run([]string{"serve", dsl}, &stdout, &stderr); code != 2 {
			t.Errorf("serve %q: exit code = %d, want 2 (stderr:\n%s)", dsl, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "server:") {
			t.Errorf("serve %q: stderr missing config error:\n%s", dsl, stderr.String())
		}
	}
}

// TestPretenureUnknownKindExitsTwo: the placement figure validates its
// kind list against the registry and fails usage-style, naming the full
// valid set, before any run starts.
func TestPretenureUnknownKindExitsTwo(t *testing.T) {
	for _, arg := range []string{"bogus", "ps:warp", "ps::th"} {
		var stdout, stderr strings.Builder
		if code := run([]string{"pretenure", arg}, &stdout, &stderr); code != 2 {
			t.Fatalf("pretenure %q: exit code = %d, want 2 (stderr:\n%s)", arg, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("pretenure %q: wrote to stdout before failing: %q", arg, stdout.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, "unknown runtime kind") ||
			!strings.Contains(msg, "valid: ps th g1 mo panthera g1+th ng2c deca") {
			t.Errorf("pretenure %q: stderr must name the bad kind and the valid set:\n%s", arg, msg)
		}
	}
}

// TestServeUnknownKindExitsTwo: the serve kinds= filter goes through the
// same registry validation.
func TestServeUnknownKindExitsTwo(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"serve", "kinds=ps:warp"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr:\n%s)", code, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown kind "warp"`) ||
		!strings.Contains(msg, "valid: ps th g1 mo panthera g1+th ng2c deca") {
		t.Errorf("stderr must name the bad kind and the valid set:\n%s", msg)
	}
}

// TestServeSubcommandDeterministic: a reduced sweep prints the SLO table
// and two invocations in one process are byte-identical (the CI job pins
// the cross-process half).
func TestServeSubcommandDeterministic(t *testing.T) {
	runServe := func() (string, int) {
		var stdout, stderr strings.Builder
		code := run([]string{"serve", "reqs=2000,keys=1024,clients=50000"}, &stdout, &stderr)
		if stderr.Len() != 0 {
			t.Fatalf("unexpected stderr:\n%s", stderr.String())
		}
		return stdout.String(), code
	}
	a, codeA := runServe()
	b, codeB := runServe()
	if codeA != 0 || codeB != 0 {
		t.Fatalf("exit codes = %d, %d, want 0", codeA, codeB)
	}
	if a != b {
		t.Fatalf("same-seed serve runs diverged:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	for _, want := range []string{"== serve:", "sloViol", "serve/th/", "serve/g1+th/"} {
		if !strings.Contains(a, want) {
			t.Errorf("serve report missing %q:\n%s", want, a)
		}
	}
}

// TestChaosServeSubcommand: the serve chaos schedule completes with zero
// panics, visible shedding, and a recovered-throughput verdict, and obeys
// the pinned exit contract (0 unless panic/OOM).
func TestChaosServeSubcommand(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"chaos-serve"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr:\n%s\nstdout:\n%s)", code, stderr.String(), stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{"== chaos-serve:", "verifier on", "panicked=0", "throughput: recovered", "totals: shed="} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos-serve report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "totals: shed=0 ") {
		t.Errorf("chaos-serve shed nothing under the default plan:\n%s", out)
	}
}
