package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSolvesStdin(t *testing.T) {
	in := strings.NewReader(`
const filter := match /[\d]+$/;
const unsafe := match /'/;
input <= filter;
"nid_" . input <= unsafe;
`)
	var out, errb strings.Builder
	rc := run(nil, in, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc = %d, stderr %q", rc, errb.String())
	}
	if !strings.Contains(out.String(), "assignment 1:") || !strings.Contains(out.String(), "input = ") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestRunSolvesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sys.dprle")
	src := "const c := re /ab*/;\nv <= c;\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	rc := run([]string{"-enum", "3", path}, strings.NewReader(""), &out, &errb)
	if rc != 0 {
		t.Fatalf("rc = %d, stderr %q", rc, errb.String())
	}
	if !strings.Contains(out.String(), "members of assignment 1:") {
		t.Fatalf("missing enumeration: %q", out.String())
	}
}

func TestRunUnsatExitCode(t *testing.T) {
	in := strings.NewReader("const a := re /x/;\nconst b := re /y/;\nv <= a;\nv <= b;\n")
	var out, errb strings.Builder
	rc := run(nil, in, &out, &errb)
	if rc != 1 {
		t.Fatalf("rc = %d, want 1", rc)
	}
	if !strings.Contains(out.String(), "no assignments found") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestRunParseError(t *testing.T) {
	var out, errb strings.Builder
	rc := run(nil, strings.NewReader("v <= undeclared;"), &out, &errb)
	if rc != 2 || !strings.Contains(errb.String(), "dprle:") {
		t.Fatalf("rc = %d, stderr %q", rc, errb.String())
	}
}

func TestRunMultipleFiles(t *testing.T) {
	dir := t.TempDir()
	sat := filepath.Join(dir, "sat.dprle")
	unsat := filepath.Join(dir, "unsat.dprle")
	if err := os.WriteFile(sat, []byte("const c := re /ab*/;\nv <= c;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(unsat, []byte("const a := re /x/;\nconst b := re /y/;\nv <= a;\nv <= b;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	rc := run([]string{sat, unsat}, strings.NewReader(""), &out, &errb)
	if rc != 1 {
		t.Fatalf("rc = %d, want 1 (unsat dominates sat); stderr %q", rc, errb.String())
	}
	for _, want := range []string{"== " + sat + " ==", "== " + unsat + " ==", "assignment 1:", "no assignments found"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunBatchCacheReuse solves the same file twice in one invocation: the
// second solve must hit the shared component cache, and -usage must report
// the counters.
func TestRunBatchCacheReuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sys.dprle")
	src := "const c := re /ab/;\nv1 . v2 <= c;\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	rc := run([]string{"-usage", path, path}, strings.NewReader(""), &out, &errb)
	if rc != 0 {
		t.Fatalf("rc = %d, stderr %q", rc, errb.String())
	}
	if !strings.Contains(errb.String(), "cache: hits=") {
		t.Fatalf("stderr missing cache counters: %q", errb.String())
	}
	if strings.Contains(errb.String(), "cache: hits=0 ") {
		t.Fatalf("repeated file produced no cache hits: %q", errb.String())
	}
	// Both solves print the same assignments.
	if got := strings.Count(out.String(), "assignment 1:"); got != 2 {
		t.Fatalf("assignment blocks = %d, want 2:\n%s", got, out.String())
	}

	// With caching disabled the batch still solves, with zero reuse.
	var out2, errb2 strings.Builder
	if rc := run([]string{"-cache-size", "-1", path, path}, strings.NewReader(""), &out2, &errb2); rc != 0 {
		t.Fatalf("disabled-cache rc = %d, stderr %q", rc, errb2.String())
	}
}

func TestRunMissingFile(t *testing.T) {
	var out, errb strings.Builder
	if rc := run([]string{"/nonexistent/x.dprle"}, strings.NewReader(""), &out, &errb); rc != 2 {
		t.Fatalf("rc = %d, want 2", rc)
	}
}

func TestRunFlagVariants(t *testing.T) {
	src := "const c := re /a+/;\nv <= c;\n"
	for _, flags := range [][]string{
		{"-max", "2"},
	} {
		var out, errb strings.Builder
		rc := run(flags, strings.NewReader(src), &out, &errb)
		if rc != 0 {
			t.Fatalf("flags %v: rc = %d, stderr %q", flags, rc, errb.String())
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errb strings.Builder
	if rc := run([]string{"-bogus"}, strings.NewReader(""), &out, &errb); rc != 2 {
		t.Fatalf("rc = %d, want 2", rc)
	}
}

// bombSrc is a system whose solve determinizes an exponentially-blowing
// NFA ((a|b)*a(a|b)^24), guaranteeing any small budget trips.
const bombSrc = "const bomb := re /(a|b)*a(a|b){24}/;\nv1 . v2 <= bomb;\n"

func TestRunTimeoutExitCode(t *testing.T) {
	var out, errb strings.Builder
	rc := run([]string{"-timeout", "150ms"}, strings.NewReader(bombSrc), &out, &errb)
	if rc != 3 {
		t.Fatalf("rc = %d, want 3; stderr %q", rc, errb.String())
	}
	if !strings.Contains(errb.String(), "budget exhausted") {
		t.Fatalf("stderr = %q, want budget-exhausted note", errb.String())
	}
	// The timeout kills the solve, not the process: results (possibly
	// "no assignments found") must still have been printed.
	if out.String() == "" {
		t.Fatal("no result output printed on budget exhaustion")
	}
}

func TestRunMaxStatesExitCode(t *testing.T) {
	var out, errb strings.Builder
	rc := run([]string{"-max-states", "2000", "-usage"}, strings.NewReader(bombSrc), &out, &errb)
	if rc != 3 {
		t.Fatalf("rc = %d, want 3; stderr %q", rc, errb.String())
	}
	if !strings.Contains(errb.String(), "max-states") {
		t.Fatalf("stderr = %q, want a max-states trip", errb.String())
	}
	if !strings.Contains(errb.String(), "usage: states=") {
		t.Fatalf("stderr = %q, want -usage counters", errb.String())
	}
}

func TestRunGenerousBudgetStillSat(t *testing.T) {
	src := "const c := re /ab*/;\nv <= c;\n"
	var out, errb strings.Builder
	rc := run([]string{"-timeout", "30s", "-max-states", "1000000", "-max-steps", "1000000"},
		strings.NewReader(src), &out, &errb)
	if rc != 0 {
		t.Fatalf("rc = %d, stderr %q", rc, errb.String())
	}
	if !strings.Contains(out.String(), "assignment 1:") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestRunDotOutput(t *testing.T) {
	src := "const c := re /ab/;\nv <= c;\n"
	var out, errb strings.Builder
	if rc := run([]string{"-dot", "v"}, strings.NewReader(src), &out, &errb); rc != 0 {
		t.Fatalf("rc = %d, stderr %q", rc, errb.String())
	}
	if !strings.Contains(out.String(), "digraph") {
		t.Fatalf("missing DOT output: %q", out.String())
	}
	var out2, errb2 strings.Builder
	if rc := run([]string{"-dot", "nosuch"}, strings.NewReader(src), &out2, &errb2); rc != 2 {
		t.Fatalf("unknown -dot variable rc = %d", rc)
	}
}
