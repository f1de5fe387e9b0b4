package odbis

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runPerfGate shells the real gate script against a synthetic fresh
// file and budget so regressions in the awk join are caught by go test,
// not by a silently green CI stage.
func runPerfGate(t *testing.T, fresh, budget string) (output string, exitCode int) {
	t.Helper()
	dir := t.TempDir()
	freshPath := filepath.Join(dir, "fresh.json")
	budgetPath := filepath.Join(dir, "budget.json")
	if err := os.WriteFile(freshPath, []byte(fresh), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(budgetPath, []byte(budget), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("sh", "scripts/perf_gate.sh", freshPath, budgetPath)
	out, err := cmd.CombinedOutput()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("perf_gate.sh did not run: %v\n%s", err, out)
		}
		return string(out), ee.ExitCode()
	}
	return string(out), 0
}

const gateBudget = `[
  {"name": "BenchmarkPresent", "max_ns_per_op": 100, "why": "test row"},
  {"name": "BenchmarkGone", "max_ns_per_op": 100, "why": "test row"}
]`

// TestPerfGateMissingBenchmark: a gated benchmark absent from the fresh
// output must fail the gate — a deleted benchmark is a silently dropped
// performance contract, not a pass.
func TestPerfGateMissingBenchmark(t *testing.T) {
	fresh := `[
  {"name": "BenchmarkPresent", "iterations": 100, "ns_per_op": 50}
]`
	out, code := runPerfGate(t, fresh, gateBudget)
	if code == 0 {
		t.Fatalf("gate passed with a gated benchmark missing:\n%s", out)
	}
	if !strings.Contains(out, "MISSING") || !strings.Contains(out, "BenchmarkGone") {
		t.Errorf("missing-benchmark diagnostic absent:\n%s", out)
	}
}

// TestPerfGateEmptyFresh: an empty fresh file means the bench run
// produced nothing — the gate must hard-fail rather than vacuously pass
// (the historical bug: file classification by "first line seen" let an
// empty fresh file shift the budget into the fresh slot).
func TestPerfGateEmptyFresh(t *testing.T) {
	out, code := runPerfGate(t, "", gateBudget)
	if code == 0 {
		t.Fatalf("gate passed on an empty fresh file:\n%s", out)
	}
	if !strings.Contains(out, "no benchmarks parsed") {
		t.Errorf("empty-fresh diagnostic absent:\n%s", out)
	}
}

// TestPerfGateWithinBudget: the happy path still passes and reports
// every gated row.
func TestPerfGateWithinBudget(t *testing.T) {
	fresh := `[
  {"name": "BenchmarkPresent", "iterations": 100, "ns_per_op": 50},
  {"name": "BenchmarkGone", "iterations": 100, "ns_per_op": 99}
]`
	out, code := runPerfGate(t, fresh, gateBudget)
	if code != 0 {
		t.Fatalf("gate failed within budget (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, "all 2 gated benchmarks within budget") {
		t.Errorf("pass summary absent:\n%s", out)
	}
}

// TestPerfGateTailCeiling: the max_p99_ns column (reported by the load
// harness) gates tail latency with the same tolerance as ns_per_op, and
// a gated row whose fresh run lacks the metric hard-fails rather than
// silently passing.
func TestPerfGateTailCeiling(t *testing.T) {
	budget := `[
  {"name": "BenchmarkLoad", "max_p99_ns": 1000000, "why": "tail row"}
]`
	ok := `[
  {"name": "BenchmarkLoad", "iterations": 100, "ns_per_op": 50, "p99_ns": 900000}
]`
	out, code := runPerfGate(t, ok, budget)
	if code != 0 {
		t.Fatalf("gate failed within p99 budget (exit %d):\n%s", code, out)
	}
	over := `[
  {"name": "BenchmarkLoad", "iterations": 100, "ns_per_op": 50, "p99_ns": 9000000}
]`
	out, code = runPerfGate(t, over, budget)
	if code == 0 {
		t.Fatalf("gate passed over p99 budget:\n%s", out)
	}
	if !strings.Contains(out, "TAIL") {
		t.Errorf("tail diagnostic absent:\n%s", out)
	}
	missing := `[
  {"name": "BenchmarkLoad", "iterations": 100, "ns_per_op": 50}
]`
	out, code = runPerfGate(t, missing, budget)
	if code == 0 {
		t.Fatalf("gate passed with p99 gated but unreported:\n%s", out)
	}
	if !strings.Contains(out, "MISSING") {
		t.Errorf("missing-p99 diagnostic absent:\n%s", out)
	}
}

// TestPerfGateOverBudget: exceeding a ceiling (after tolerance) fails.
func TestPerfGateOverBudget(t *testing.T) {
	fresh := `[
  {"name": "BenchmarkPresent", "iterations": 100, "ns_per_op": 50000},
  {"name": "BenchmarkGone", "iterations": 100, "ns_per_op": 99}
]`
	out, code := runPerfGate(t, fresh, gateBudget)
	if code == 0 {
		t.Fatalf("gate passed over budget:\n%s", out)
	}
	if !strings.Contains(out, "OVER") || !strings.Contains(out, "BenchmarkPresent") {
		t.Errorf("over-budget diagnostic absent:\n%s", out)
	}
}

// TestBenchEmitterStripsProcsSuffix: with GOMAXPROCS > 1 go test names
// a benchmark BenchmarkX-<procs>. The emitter must drop the suffix, or
// every budget row joins against nothing and the gate reports the whole
// budget MISSING — which is what it did on every multi-core host.
func TestBenchEmitterStripsProcsSuffix(t *testing.T) {
	dir := t.TempDir()
	freshPath := filepath.Join(dir, "fresh.json")
	cmd := exec.Command("awk", "-v", "out="+freshPath, "-f", "scripts/bench_emit.awk")
	cmd.Stdin = strings.NewReader(`goos: linux
BenchmarkPresent-2     100     70 ns/op     16 B/op     1 allocs/op
BenchmarkPresent-2     100     50 ns/op     16 B/op     1 allocs/op
BenchmarkGone/sub-16   100     99 ns/op
PASS
`)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("bench_emit.awk: %v\n%s", err, out)
	}
	fresh, err := os.ReadFile(freshPath)
	if err != nil {
		t.Fatal(err)
	}
	budget := strings.Replace(gateBudget, "BenchmarkGone", "BenchmarkGone/sub", 1)
	out, code := runPerfGate(t, string(fresh), budget)
	if code != 0 {
		t.Fatalf("gate failed on suffixed names (exit %d):\n%s\nemitted:\n%s", code, out, fresh)
	}
	if !strings.Contains(out, "50.0 ns/op") {
		t.Errorf("gate did not see the fastest of the two BenchmarkPresent runs:\n%s", out)
	}
}
