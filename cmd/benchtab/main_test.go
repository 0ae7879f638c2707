package main

import (
	"strings"
	"testing"
)

func TestFig11Table(t *testing.T) {
	var out, errb strings.Builder
	if rc := run([]string{"-table", "fig11"}, &out, &errb); rc != 0 {
		t.Fatalf("rc = %d, stderr %q", rc, errb.String())
	}
	for _, want := range []string{"Figure 11", "eve", "utopia", "warp"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestFig12TableSkipsSecure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 16 ordinary defects")
	}
	var out, errb strings.Builder
	if rc := run([]string{"-table", "fig12"}, &out, &errb); rc != 0 {
		t.Fatalf("rc = %d, stderr %q", rc, errb.String())
	}
	if !strings.Contains(out.String(), "(skipped)") {
		t.Fatal("secure should be skipped without -full")
	}
	if !strings.Contains(out.String(), "all exploitable=true") {
		t.Fatalf("shape line missing: %q", out.String())
	}
}

func TestComplexityTableSmall(t *testing.T) {
	// The full sweep list is exercised by the benchmarks; here we only
	// check the plumbing with the unknown-table error path.
	var out, errb strings.Builder
	if rc := run([]string{"-table", "bogus"}, &out, &errb); rc != 2 {
		t.Fatalf("rc = %d, want 2", rc)
	}
	if !strings.Contains(errb.String(), "unknown table") {
		t.Fatalf("stderr = %q", errb.String())
	}
}

func TestBadFlag(t *testing.T) {
	var out, errb strings.Builder
	if rc := run([]string{"-nope"}, &out, &errb); rc != 2 {
		t.Fatalf("rc = %d", rc)
	}
}

func TestAblationTableCmd(t *testing.T) {
	var out, errb strings.Builder
	if rc := run([]string{"-table", "ablation"}, &out, &errb); rc != 0 {
		t.Fatalf("rc = %d, stderr %q", rc, errb.String())
	}
	if !strings.Contains(out.String(), "utopia/styles") {
		t.Fatalf("output = %q", out.String())
	}
}
