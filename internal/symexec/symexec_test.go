package symexec

import (
	"strings"
	"testing"

	"dprle/internal/cfg"
	"dprle/internal/core"
	"dprle/internal/faultinject"
	"dprle/internal/lang"
	"dprle/internal/policy"
)

const figure1 = `<?php
$newsid = $_POST['posted_newsid'];
if (!preg_match('/[\d]+$/', $newsid)) {
    unp_msgBox('Invalid article newsID.');
    exit;
}
$newsid = "nid_" . $newsid;
$idnews = query("SELECT * FROM news" . " WHERE newsid=$newsid");
`

func analyzeFig1(t *testing.T) []Finding {
	t.Helper()
	findings, stats, err := AnalyzeSource("fig1.php", figure1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocks != 3 {
		t.Fatalf("|FG| = %d, want 3", stats.Blocks)
	}
	return findings
}

func TestFigure1EndToEnd(t *testing.T) {
	findings := analyzeFig1(t)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1", len(findings))
	}
	f := findings[0]
	if f.Kind != cfg.SinkSQL {
		t.Fatalf("kind = %v", f.Kind)
	}
	exploit := f.Inputs["POST:posted_newsid"]
	if exploit == "" {
		t.Fatalf("no exploit input: %v", f.Inputs)
	}
	// The generated input must pass the filter and break the query: it ends
	// with a digit and contains a quote.
	if !strings.ContainsRune(exploit, '\'') {
		t.Fatalf("exploit %q lacks a quote", exploit)
	}
	last := exploit[len(exploit)-1]
	if last < '0' || last > '9' {
		t.Fatalf("exploit %q does not end with a digit", exploit)
	}
	if !strings.Contains(f.String(), "sql injection") {
		t.Fatalf("report = %q", f.String())
	}
}

func TestFigure1FixedIsSafe(t *testing.T) {
	fixed := strings.Replace(figure1, `/[\d]+$/`, `/^[\d]+$/`, 1)
	findings, _, err := AnalyzeSource("fixed.php", fixed, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("fixed filter should yield no findings, got %v", findings)
	}
}

func TestConstraintCounting(t *testing.T) {
	prog := lang.MustParse("t.php", figure1)
	paths := cfg.PathsToSinks(prog, 0)
	ps, err := ForPath(paths[0], policy.SQLDefault())
	if err != nil {
		t.Fatal(err)
	}
	// One filter constraint + one sink constraint.
	if ps.NumConstraints != 2 {
		t.Fatalf("|C| = %d, want 2", ps.NumConstraints)
	}
	if len(ps.Inputs) != 1 || ps.Inputs[0] != "POST:posted_newsid" {
		t.Fatalf("inputs = %v", ps.Inputs)
	}
}

// TestRepeatedFilterSharesConstant pins how a path interns its named
// constraint languages: a filter met again shares the first occurrence's
// constant, while the same pattern on a negated branch and its /i twin
// each get their own. Every occurrence is still a constraint.
func TestRepeatedFilterSharesConstant(t *testing.T) {
	src := `
$x = $_GET['x'];
$y = $_GET['y'];
if (!preg_match('/^[a-z]+$/', $x)) { exit; }
if (!preg_match('/^[a-z]+$/', $x)) { exit; }
if (preg_match('/^[a-z]+$/', $y)) { exit; }
if (!preg_match('/^[a-z]+$/i', $y)) { exit; }
query("SELECT " . $x . $y);
`
	paths := cfg.PathsToSinks(lang.MustParse("t.php", src), 0)
	if len(paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(paths))
	}
	ps, err := ForPath(paths[0], policy.SQLDefault())
	if err != nil {
		t.Fatal(err)
	}
	// Four filter constraints, then the sink's.
	cs := ps.Sys.Constraints()
	if ps.NumConstraints != 5 || len(cs) != 5 {
		t.Fatalf("|C| = %d with %d constraints, want 5", ps.NumConstraints, len(cs))
	}
	first, repeat, negated, folded := cs[0].Rhs, cs[1].Rhs, cs[2].Rhs, cs[3].Rhs
	if repeat != first {
		t.Errorf("repeated filter got constant %s, want the first one, %s", repeat.Name, first.Name)
	}
	if negated == first || folded == first || negated == folded {
		t.Errorf("negated branch (%s) and /i twin (%s) must each get their own constant, apart from %s",
			negated.Name, folded.Name, first.Name)
	}
	names := first.Name + " " + negated.Name + " " + folded.Name
	if want := "match:/^[a-z]+$/ nomatch:/^[a-z]+$/ match:/^[a-z]+$/i"; names != want {
		t.Errorf("constants %s, want %s", names, want)
	}
}

func TestNegatedGuardBranch(t *testing.T) {
	// Taking the then-branch of a negated match means NO match: the
	// complement constraint applies.
	src := `
$x = $_GET['x'];
if (!preg_match('/^[a-z]+$/', $x)) {
    query("SELECT " . $x);
}
`
	findings, _, err := AnalyzeSource("t.php", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %d", len(findings))
	}
	exploit := findings[0].Inputs["GET:x"]
	// Must contain a quote (policy) and not be all-lowercase (complement).
	if !strings.ContainsRune(exploit, '\'') {
		t.Fatalf("exploit %q lacks quote", exploit)
	}
	allLower := len(exploit) > 0
	for i := 0; i < len(exploit); i++ {
		if exploit[i] < 'a' || exploit[i] > 'z' {
			allLower = false
		}
	}
	if allLower {
		t.Fatalf("exploit %q passes the guard it must fail", exploit)
	}
}

func TestEffectiveSanitizerBlocks(t *testing.T) {
	// A fully anchored digits-only filter stops the quote policy.
	src := `
$x = $_GET['x'];
if (preg_match('/^[0-9]+$/', $x)) {
    query("SELECT " . $x);
}
`
	findings, _, err := AnalyzeSource("t.php", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("digits-only input cannot contain a quote; findings = %v", findings)
	}
}

func TestAddslashesBlocksQuote(t *testing.T) {
	src := `
$x = addslashes($_GET['x']);
query("SELECT '" . $x . "'");
`
	findings, _, err := AnalyzeSource("t.php", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The query text contains literal quotes around the value, so the
	// quote policy is trivially met — but the attacker input itself is
	// escaped. The finding (if any) must not require a bare quote in x.
	// With literal quotes in the template, the sink constraint holds for
	// any x, so a finding IS reported (the template itself is quote-y);
	// this mirrors the known imprecision of the quote policy.
	if len(findings) == 1 {
		if findings[0].Inputs["GET:x"] == "" {
			// shortest witness may be the empty string — acceptable.
			t.Log("witness is empty string; template quotes satisfy policy")
		}
	}
}

func TestIntvalTransfer(t *testing.T) {
	src := `
$x = intval($_GET['x']);
query("SELECT " . $x);
`
	findings, _, err := AnalyzeSource("t.php", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// intval output is -?[0-9]+ which cannot contain a quote: no finding.
	if len(findings) != 0 {
		t.Fatalf("intval-guarded sink must be safe, got %v", findings)
	}
}

func TestUnknownCallIsUnconstrained(t *testing.T) {
	src := `
$x = mystery($_GET['x']);
query("SELECT " . $x);
`
	findings, _, err := AnalyzeSource("t.php", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The unknown call's result could be anything, but it is not an HTTP
	// input — there is no input variable to solve for.
	if len(findings) != 0 {
		t.Fatalf("no HTTP input reaches the sink directly, got %v", findings)
	}
}

func TestSharedInputAcrossReads(t *testing.T) {
	// Two reads of the same input key are the same variable: constraints
	// conjoin.
	src := `
$a = $_GET['k'];
$b = $_GET['k'];
if (preg_match('/^x/', $a)) {
    if (preg_match('/y$/', $b)) {
        query($a . $b);
    }
}
`
	findings, _, err := AnalyzeSource("t.php", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %d", len(findings))
	}
	w := findings[0].Inputs["GET:k"]
	if !strings.HasPrefix(w, "x") || !strings.HasSuffix(w, "y") {
		t.Fatalf("shared input witness %q must satisfy both filters", w)
	}
	if !strings.Contains(w+w, "'") {
		t.Fatalf("doubled input %q must meet the quote policy", w)
	}
}

func TestXSSSink(t *testing.T) {
	src := `
$x = $_GET['msg'];
if (preg_match('/^[a-zA-Z<> =]+$/', $x)) {
    echo "<div>" . $x . "</div>";
}
`
	findings, _, err := AnalyzeSource("t.php", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %d", len(findings))
	}
	if findings[0].Kind != cfg.SinkXSS {
		t.Fatalf("kind = %v", findings[0].Kind)
	}
	if !strings.Contains(findings[0].Inputs["GET:msg"], "<script") {
		t.Fatalf("XSS exploit %q lacks script tag", findings[0].Inputs["GET:msg"])
	}
}

func TestMultiplePathsFirstPerSink(t *testing.T) {
	src := `
$x = $_GET['x'];
if ($mode) { $y = 'a'; } else { $y = 'b'; }
query($x . $y);
`
	cfgc := DefaultConfig()
	findings, stats, err := AnalyzeSource("t.php", src, cfgc)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Paths != 2 {
		t.Fatalf("paths = %d", stats.Paths)
	}
	if len(findings) != 1 {
		t.Fatalf("FirstPerSink should emit a single finding, got %d", len(findings))
	}
	cfgc.FirstPerSink = false
	findings, _, err = AnalyzeSource("t.php", src, cfgc)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("all-paths mode should emit 2, got %d", len(findings))
	}
}

func TestUninitializedVariableIsEmptyString(t *testing.T) {
	src := `query("SELECT" . $never_set . "'");`
	findings, _, err := AnalyzeSource("t.php", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Query contains a literal quote but no input: no finding.
	if len(findings) != 0 {
		t.Fatalf("findings = %v", findings)
	}
}

func TestSolverOptionsRespected(t *testing.T) {
	prog := lang.MustParse("t.php", figure1)
	paths := cfg.PathsToSinks(prog, 0)
	ps, err := ForPath(paths[0], policy.SQLDefault())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(ps.Sys, core.Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SatFor(ps.Inputs) {
		t.Fatal("minimized solve should still find the exploit language")
	}
}

func TestTautologyPolicy(t *testing.T) {
	cfgc := DefaultConfig()
	cfgc.SQL = policy.SQLTautology()
	findings, _, err := AnalyzeSource("fig1.php", figure1, cfgc)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %d", len(findings))
	}
	w := findings[0].Inputs["POST:posted_newsid"]
	if !strings.Contains(w, "OR ") {
		t.Fatalf("tautology exploit %q", w)
	}
}

func TestLoopUnrolledPaths(t *testing.T) {
	// A loop that concatenates the same input repeatedly: the unrolled
	// paths produce constraints with repeated variable occurrences.
	src := `
$x = $_GET['x'];
while ($more) { $x = $x . $_GET['x']; }
query($x);
`
	cfgc := DefaultConfig()
	cfgc.FirstPerSink = false
	findings, stats, err := AnalyzeSource("t.php", src, cfgc)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Paths != cfg.MaxLoopUnroll+1 {
		t.Fatalf("paths = %d", stats.Paths)
	}
	// Every unrolling is exploitable (x itself can hold a quote).
	if len(findings) != cfg.MaxLoopUnroll+1 {
		t.Fatalf("findings = %d", len(findings))
	}
	for _, f := range findings {
		if !strings.Contains(f.Inputs["GET:x"], "'") {
			t.Fatalf("exploit %q lacks quote", f.Inputs["GET:x"])
		}
	}
}

func TestLoopWithFilterInside(t *testing.T) {
	// The loop body re-filters the accumulated value; a doubled input must
	// still satisfy the guard on each iteration's value.
	src := `
$x = $_GET['seed'];
if (!preg_match('/[\d]$/', $x)) { exit; }
while ($more) {
    $x = $x . $_GET['seed'];
}
query($x);
`
	cfgc := DefaultConfig()
	cfgc.FirstPerSink = false
	findings, _, err := AnalyzeSource("t.php", src, cfgc)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("expected findings")
	}
	for _, f := range findings {
		w := f.Inputs["GET:seed"]
		if w == "" {
			t.Fatal("no witness")
		}
		last := w[len(w)-1]
		if last < '0' || last > '9' {
			t.Fatalf("witness %q fails the filter", w)
		}
	}
}

func TestCaseInsensitiveFilterModeled(t *testing.T) {
	// The /i filter only admits (case-folded) "safe"; the quote policy is
	// unreachable, so there must be no finding.
	src := `
$x = $_GET['x'];
if (!preg_match('/^safe$/i', $x)) { exit; }
query("SELECT " . $x);
`
	findings, _, err := AnalyzeSource("t.php", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v", findings)
	}
	// Without the anchor the same /i filter is bypassable.
	src2 := `
$x = $_GET['x'];
if (!preg_match('/safe$/i', $x)) { exit; }
query("SELECT " . $x);
`
	findings, _, err = AnalyzeSource("t.php", src2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %d", len(findings))
	}
	w := findings[0].Inputs["GET:x"]
	if !strings.Contains(w, "'") {
		t.Fatalf("exploit %q", w)
	}
}

func TestStrReplaceImage(t *testing.T) {
	prog := lang.MustParse("t.php", `$x = str_replace("'", "''", $_GET['x']); query($x);`)
	call := prog.Stmts[0].(*lang.Assign).Rhs.(*lang.Call)
	img, ok := strReplaceImage(call)
	if !ok {
		t.Fatal("quote-doubling replace should be modelable")
	}
	// Quotes only ever appear doubled.
	for _, w := range []string{"", "abc", "a''b", "''''"} {
		if !img.Accepts(w) {
			t.Errorf("image should accept %q", w)
		}
	}
	for _, w := range []string{"'", "a'b", "'''"} {
		if img.Accepts(w) {
			t.Errorf("image should reject %q", w)
		}
	}
}

func TestStrReplaceUnmodelableCases(t *testing.T) {
	for _, src := range []string{
		`$x = str_replace("ab", "c", $y); query($x);`,     // multi-byte search
		`$x = str_replace($s, "c", $y); query($x);`,       // dynamic search
		`$x = str_replace("'", "''", $y, $n); query($x);`, // wrong arity
	} {
		prog := lang.MustParse("t.php", src)
		call := prog.Stmts[0].(*lang.Assign).Rhs.(*lang.Call)
		if _, ok := strReplaceImage(call); ok {
			t.Errorf("%s: should not be modelable", src)
		}
	}
}

func TestStrReplaceStripsQuotesMakesSafe(t *testing.T) {
	// Removing quotes entirely makes the quote policy unreachable through
	// the sanitized value.
	src := `
$x = str_replace("'", "", $_GET['x']);
query("SELECT name FROM t WHERE id=" . $x);
`
	findings, _, err := AnalyzeSource("t.php", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("quote-stripped sink must be safe: %v", findings)
	}
}

// TestEveryTripCountsAsExhausted trips Figure 1's solve at each of its
// checkpoints in turn. Wherever the trip lands, including the stages that
// degrade without an error, the path must count in ExhaustedPaths.
func TestEveryTripCountsAsExhausted(t *testing.T) {
	_, stats, err := AnalyzeSource("fig1.php", figure1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.SolveSteps == 0 || stats.ExhaustedPaths != 0 {
		t.Fatalf("untripped run: %d steps, %d exhausted paths", stats.SolveSteps, stats.ExhaustedPaths)
	}
	for n := int64(1); n <= stats.SolveSteps; n++ {
		disarm := faultinject.Arm(faultinject.Checkpoint, n)
		_, tripped, err := AnalyzeSource("fig1.php", figure1, DefaultConfig())
		disarm()
		if err != nil {
			t.Fatalf("trip at checkpoint %d: %v", n, err)
		}
		if tripped.ExhaustedPaths != 1 {
			t.Errorf("trip at checkpoint %d of %d: %d exhausted paths, want 1", n, stats.SolveSteps, tripped.ExhaustedPaths)
		}
	}
}
