package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches `// want `regex“ expectation comments in fixtures.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// runFixture loads testdata/src/<name> and checks the analyzer's
// diagnostics against the fixture's want comments: every want must be
// matched by exactly one diagnostic on its line, and no diagnostic may
// go unexpected. Suppressed and negative cases are covered by the
// no-unexpected-diagnostics side.
func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", a.Name)
	pkgs, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages under %s", dir)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.Errs {
			t.Errorf("%s: load error: %v", pkg.Path, e)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	type want struct {
		file string
		line int
		re   *regexp.Regexp
		hit  bool
	}
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &want{
						file: pos.Filename,
						line: pos.Line,
						re:   regexp.MustCompile(m[1]),
					})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}

	diags := RunAnalyzers(pkgs, []*Analyzer{a})
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestTenantIsolationFixture(t *testing.T)  { runFixture(t, TenantIsolation) }
func TestLayerCheckFixture(t *testing.T)       { runFixture(t, LayerCheck) }
func TestLockDisciplineFixture(t *testing.T)   { runFixture(t, LockDiscipline) }
func TestGoroutineHygieneFixture(t *testing.T) { runFixture(t, GoroutineHygiene) }
func TestErrConventionFixture(t *testing.T)    { runFixture(t, ErrConvention) }
func TestAliasLeakFixture(t *testing.T)        { runFixture(t, AliasLeak) }

// TestCLIGolden pins the driver's output format: sorted diagnostics in
// "file:line: [check] message" form, findings summary on stderr, exit
// code 1.
func TestCLIGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Main([]string{"-checks", "aliasleak,errconvention,releasepath,staticrace", "testdata/src/cli"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	goldenPath := filepath.Join("testdata", "cli.golden")
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got, want := stdout.String(), string(golden); got != want {
		t.Errorf("CLI output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if !strings.Contains(stderr.String(), "4 finding(s)") {
		t.Errorf("stderr = %q, want findings summary", stderr.String())
	}
}

// TestCLICleanTree ensures the analyzers stay green on the repo itself:
// the same invariant the ci script enforces, kept close to the code so
// `go test ./internal/analysis` catches regressions without the CLI.
func TestCLICleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	var stdout, stderr bytes.Buffer
	code := Main([]string{"../..."}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("odbis-vet on the repo = exit %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, a := range All() {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output missing %s", a.Name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Fatal("expected error for unknown check")
	}
	as, err := ByName(nil)
	if err != nil || len(as) != len(All()) {
		t.Fatalf("ByName(nil) = %d analyzers, err %v", len(as), err)
	}
}

// TestIgnoreCoversNextLine checks the suppression span: the directive
// line and the one after it, nothing further.
func TestIgnoreCoversNextLine(t *testing.T) {
	dir := t.TempDir()
	src := `package tmp

import "errors"

//odbis:ignore errconvention -- covers the next line
var First = errors.New("x")
var Second = errors.New("y")
`
	writeModule(t, dir, src)
	pkgs, err := Load(dir, []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkgs, []*Analyzer{ErrConvention})
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want exactly the Second finding", diags)
	}
	if !strings.Contains(diags[0].Message, "Second") {
		t.Errorf("surviving diagnostic = %s, want the one for Second", diags[0])
	}
}

// TestBareIgnoreSuppressesNothing: a directive must name its checks.
func TestBareIgnoreSuppressesNothing(t *testing.T) {
	dir := t.TempDir()
	src := `package tmp

import "errors"

var Oops = errors.New("x") //odbis:ignore
`
	writeModule(t, dir, src)
	pkgs, err := Load(dir, []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkgs, []*Analyzer{ErrConvention})
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want 1 (bare ignore must not suppress)", diags)
	}
}

func writeModule(t *testing.T, dir, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module example.com/tmp\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tmp.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSQLTaintFixture(t *testing.T)    { runFixture(t, SQLTaint) }
func TestLockOrderFixture(t *testing.T)   { runFixture(t, LockOrder) }
func TestCtxTenantFixture(t *testing.T)   { runFixture(t, CtxTenant) }
func TestReleasePathFixture(t *testing.T) { runFixture(t, ReleasePath) }
func TestHotAllocFixture(t *testing.T)    { runFixture(t, HotAlloc) }
func TestObsHandleFixture(t *testing.T)   { runFixture(t, ObsHandle) }
func TestGuardInferFixture(t *testing.T)  { runFixture(t, GuardInfer) }
func TestStaticRaceFixture(t *testing.T)  { runFixture(t, StaticRace) }

// TestJSONGolden pins the -json wire format.
func TestJSONGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Main([]string{"-json", "-checks", "aliasleak,errconvention,releasepath,staticrace", "testdata/src/cli"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "cli.json.golden"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got, want := stdout.String(), string(golden); got != want {
		t.Errorf("-json output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFixDryRun: -fix -dry-run prints a non-empty diff and leaves the
// fixture untouched.
func TestFixDryRun(t *testing.T) {
	src := filepath.Join("testdata", "src", "errconvention", "errs", "errs.go")
	before, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := Main([]string{"-checks", "errconvention", "-fix", "-dry-run", "testdata/src/errconvention/..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (all errconvention findings are fixable)\nstderr: %s", code, stderr.String())
	}
	diff := stdout.String()
	if !strings.Contains(diff, "@@") || !strings.Contains(diff, "+var ErrBadName") {
		t.Errorf("dry-run diff missing expected hunks:\n%s", diff)
	}
	if !strings.Contains(stderr.String(), "would apply 3 fix(es)") {
		t.Errorf("stderr = %q, want a would-apply summary", stderr.String())
	}
	after, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("dry-run modified the fixture file")
	}
}

// TestFixApplyIdempotent applies fixes to a copy of the errconvention
// fixture: the first pass repairs every finding, the second finds
// nothing left to do.
func TestFixApplyIdempotent(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "src", "errconvention", "errs", "errs.go"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeModule(t, dir, string(fixture))

	run := func() ([]Diagnostic, *FixResult) {
		pkgs, err := Load(dir, []string{"."})
		if err != nil {
			t.Fatal(err)
		}
		diags := RunAnalyzers(pkgs, []*Analyzer{ErrConvention})
		res, err := ApplyFixes(diags)
		if err != nil {
			t.Fatal(err)
		}
		return diags, res
	}
	diags, res := run()
	if len(diags) != 3 || res.Applied != 3 {
		t.Fatalf("first pass: %d findings, %d applied; want 3 and 3\n%v", len(diags), res.Applied, diags)
	}
	if err := res.WriteFixes(); err != nil {
		t.Fatal(err)
	}
	fixed, err := os.ReadFile(filepath.Join(dir, "tmp.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"var ErrBadName", "%w", "lookup %s: %w"} {
		if !strings.Contains(string(fixed), want) {
			t.Errorf("fixed file missing %q", want)
		}
	}
	diags, res = run()
	if len(diags) != 0 || res.Applied != 0 || len(res.Files) != 0 {
		t.Errorf("second pass: %d findings, %d applied, %d files; want all zero\n%v",
			len(diags), res.Applied, len(res.Files), diags)
	}
}

// TestSQLTaintPlaceholderFix: the mechanical rewrite moves Sprintf
// values into bind arguments and drops SQL quotes around the verb.
func TestSQLTaintPlaceholderFix(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Main([]string{"-checks", "sqltaint", "-fix", "-dry-run", "testdata/src/sqltaint/..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (non-inline findings have no fix)\nstderr: %s", code, stderr.String())
	}
	diff := stdout.String()
	want := `db.QueryContext(r.Context(), "SELECT id FROM orders WHERE region = ?", r.FormValue("region"))`
	if !strings.Contains(diff, want) {
		t.Errorf("dry-run diff missing placeholder rewrite %q:\n%s", want, diff)
	}
}

// TestBaselineRoundTrip: -write-baseline records findings, -baseline
// silences exactly them.
func TestBaselineRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline.txt")
	var stdout, stderr bytes.Buffer
	code := Main([]string{"-checks", "aliasleak,errconvention", "-write-baseline", base, "testdata/src/cli"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("-write-baseline exit = %d\nstderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "[errconvention]") {
		t.Errorf("baseline content missing entries:\n%s", data)
	}
	stdout.Reset()
	stderr.Reset()
	code = Main([]string{"-checks", "aliasleak,errconvention", "-baseline", base, "testdata/src/cli"}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("-baseline exit = %d, want 0 (all findings baselined)\nstdout: %s", code, stdout.String())
	}
}

// TestPruneBaseline: a stale entry (its finding no longer fires) is
// dropped by -prune-baseline and printed; the live entries survive and
// still suppress their findings afterwards.
func TestPruneBaseline(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline.txt")
	var stdout, stderr bytes.Buffer
	code := Main([]string{"-checks", "aliasleak,errconvention", "-write-baseline", base, "testdata/src/cli"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("-write-baseline exit = %d\nstderr: %s", code, stderr.String())
	}
	stale := "testdata/src/cli/cli.go: [aliasleak] Gone returns internal slice state (q) without copying; callers can mutate it — return a copy"
	f, err := os.OpenFile(base, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(stale + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	stdout.Reset()
	stderr.Reset()
	code = Main([]string{"-checks", "aliasleak,errconvention", "-prune-baseline", base, "testdata/src/cli"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("-prune-baseline exit = %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), stale) {
		t.Errorf("pruned entry not printed:\nstdout: %s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "pruned 1 stale entrie(s)") {
		t.Errorf("stderr = %q, want prune summary", stderr.String())
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), stale) {
		t.Errorf("stale entry survived the prune:\n%s", data)
	}
	if !strings.Contains(string(data), "[errconvention]") {
		t.Errorf("live entries pruned too:\n%s", data)
	}

	stdout.Reset()
	stderr.Reset()
	code = Main([]string{"-checks", "aliasleak,errconvention", "-baseline", base, "testdata/src/cli"}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("post-prune -baseline exit = %d, want 0\nstdout: %s", code, stdout.String())
	}
}

// TestTimingsFlag: -timings reports every phase the run went through.
func TestTimingsFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	Main([]string{"-timings", "-checks", "errconvention,staticrace", "testdata/src/cli"}, &stdout, &stderr)
	for _, phase := range []string{"load", "errconvention", "callgraph", "staticrace"} {
		if !strings.Contains(stderr.String(), "timing: "+phase) {
			t.Errorf("missing %q phase in -timings output:\n%s", phase, stderr.String())
		}
	}
}
