package webcheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fig1 = `<?php
$newsid = $_POST['posted_newsid'];
if (!preg_match('/[\d]+$/', $newsid)) { exit; }
$newsid = "nid_" . $newsid;
$idnews = query("SELECT * FROM news WHERE newsid=$newsid");
`

func TestAnalyzeSourceFindsExploit(t *testing.T) {
	rep, err := AnalyzeSource("fig1.php", fig1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Vulnerable() || len(rep.Findings) != 1 {
		t.Fatalf("findings = %v", rep.Findings)
	}
	f := rep.Findings[0]
	if f.Kind != SQL {
		t.Fatalf("kind = %v", f.Kind)
	}
	exploit := f.Inputs["POST:posted_newsid"]
	if !strings.Contains(exploit, "'") {
		t.Fatalf("exploit %q lacks quote", exploit)
	}
	if !strings.Contains(f.String(), "sql injection") {
		t.Fatalf("String = %q", f.String())
	}
	if rep.Blocks != 3 || rep.Paths != 1 || rep.Constraints != 2 {
		t.Fatalf("metrics = %d/%d/%d", rep.Blocks, rep.Paths, rep.Constraints)
	}
}

func TestAnalyzeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig1.php")
	if err := os.WriteFile(path, []byte(fig1), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Vulnerable() {
		t.Fatal("file analysis missed the defect")
	}
	if _, err := AnalyzeFile(filepath.Join(t.TempDir(), "missing.php")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestPolicyOptions(t *testing.T) {
	rep, err := AnalyzeSource("fig1.php", fig1, WithSQLPolicy("tautology"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Vulnerable() {
		t.Fatal("tautology policy should still find the defect")
	}
	if !strings.Contains(rep.Findings[0].Inputs["POST:posted_newsid"], "OR ") {
		t.Fatalf("tautology exploit = %q", rep.Findings[0].Inputs["POST:posted_newsid"])
	}
}

func TestAllPathsOption(t *testing.T) {
	src := `<?php
$x = $_GET['x'];
if ($m) { $y = 'a'; } else { $y = 'b'; }
query($x . $y);
`
	rep, err := AnalyzeSource("t.php", src, AllPaths())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 2 {
		t.Fatalf("findings = %d, want 2", len(rep.Findings))
	}
	capped, err := AnalyzeSource("t.php", src, AllPaths(), MaxPaths(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Findings) != 1 {
		t.Fatalf("capped findings = %d", len(capped.Findings))
	}
}

func TestCorpusAccess(t *testing.T) {
	ds := CorpusDefects()
	if len(ds) != 17 {
		t.Fatalf("defects = %d", len(ds))
	}
	var secure Defect
	for _, d := range ds {
		if d.Name == "secure" {
			secure = d
		}
	}
	if !secure.Pathological || secure.PaperSeconds != 577.0 {
		t.Fatalf("secure = %+v", secure)
	}
	src, err := DefectSource(ds[0])
	if err != nil || !strings.Contains(src, "<?php") {
		t.Fatalf("DefectSource: %v", err)
	}
	if _, err := DefectSource(Defect{App: "x", Name: "y"}); err == nil {
		t.Fatal("unknown defect must error")
	}
}

func TestAnalyzeSafeProgram(t *testing.T) {
	safe := strings.Replace(fig1, `/[\d]+$/`, `/^[\d]+$/`, 1)
	rep, err := AnalyzeSource("safe.php", safe)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Vulnerable() {
		t.Fatal("anchored filter must be safe")
	}
}

func TestParseErrorPropagates(t *testing.T) {
	if _, err := AnalyzeSource("bad.php", "$x = ;"); err == nil {
		t.Fatal("syntax error must propagate")
	}
}

func TestWriteAndAnalyzeEveApp(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "eve")
	if err := WriteCorpusApp("eve", dir); err != nil {
		t.Fatal(err)
	}
	app, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 11: eve has 8 files, 905 LOC, 1 vulnerable file.
	if app.Files != 8 {
		t.Fatalf("files = %d, want 8", app.Files)
	}
	if app.Vulnerable != 1 {
		t.Fatalf("vulnerable = %d, want 1", app.Vulnerable)
	}
	if app.LOC < 800 || app.LOC > 1000 {
		t.Fatalf("LOC = %d, want ≈905", app.LOC)
	}
	if len(app.Findings) != 1 || app.Findings[0].Kind != SQL {
		t.Fatalf("findings = %v", app.Findings)
	}
	if app.PerFile["edit.php"] == nil || !app.PerFile["edit.php"].Vulnerable() {
		t.Fatal("edit.php should carry the finding")
	}
}

func TestWriteCorpusAppErrors(t *testing.T) {
	if err := WriteCorpusApp("nosuch", t.TempDir()); err == nil {
		t.Fatal("unknown app must error")
	}
	if _, err := AnalyzeDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing dir must error")
	}
}

// TestExhaustedRetriesEscalate drives the retry-with-bigger-budget path:
// fig1's solve finds its witness within about 200 solver states and
// completes within about 350, so a 100-state cap trips on the first
// attempt and the escalated (4x = 400) second one completes.
func TestExhaustedRetriesEscalate(t *testing.T) {
	// Without retries the cap kills the path.
	rep, err := AnalyzeSource("fig1.php", fig1, WithSolverLimits(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExhaustedPaths != 1 || len(rep.Findings) != 0 {
		t.Fatalf("no-retry run: exhausted=%d findings=%d, want 1/0", rep.ExhaustedPaths, len(rep.Findings))
	}

	// One escalating retry quadruples the cap and the exploit is found.
	rep, err = AnalyzeSource("fig1.php", fig1, WithSolverLimits(100, 0), WithExhaustedRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExhaustedPaths != 0 || len(rep.Findings) != 1 {
		t.Fatalf("retry run: exhausted=%d findings=%d, want 0/1", rep.ExhaustedPaths, len(rep.Findings))
	}

	// Retries that still cannot cover the need keep the degraded report:
	// 10 -> 40 states remains below the ~200 the path requires.
	rep, err = AnalyzeSource("fig1.php", fig1, WithSolverLimits(10, 0), WithExhaustedRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExhaustedPaths != 1 || len(rep.Findings) != 0 {
		t.Fatalf("undersized-retry run: exhausted=%d findings=%d, want 1/0", rep.ExhaustedPaths, len(rep.Findings))
	}
}
