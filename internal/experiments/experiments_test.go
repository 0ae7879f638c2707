package experiments

import (
	"strings"
	"testing"

	"dprle/internal/core"
	"dprle/internal/corpus"
)

func TestFigure11Table(t *testing.T) {
	rows, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.GenFiles != r.App.Files {
			t.Errorf("%s: files %d ≠ %d", r.App.Name, r.GenFiles, r.App.Files)
		}
		if r.GenVuln != r.App.Vulnerable {
			t.Errorf("%s: vulnerable %d ≠ %d", r.App.Name, r.GenVuln, r.App.Vulnerable)
		}
	}
	out := FormatFigure11(rows)
	for _, want := range []string{"eve", "utopia", "warp", "1.3.0", "Figure 11"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRunDefectMeasuresMetrics(t *testing.T) {
	d, _ := corpus.DefectByName("utopia/login")
	row, err := RunDefect(d, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if row.FG != d.WantFG || row.C != d.WantC {
		t.Fatalf("FG/C = %d/%d, want %d/%d", row.FG, row.C, d.WantFG, d.WantC)
	}
	if row.Findings != 1 || row.Exploit == "" {
		t.Fatalf("findings = %d, exploit %q", row.Findings, row.Exploit)
	}
	if row.TS <= 0 {
		t.Fatal("no time measured")
	}
}

// TestFigure12Shape verifies the paper's headline evaluation claims on the
// sixteen ordinary defects: every one yields attack inputs, and every one
// solves in far less than a second. (warp/secure — the paper's 577 s
// large-constant row — is pinned by TestSecureVerdictCounters.)
func TestFigure12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus run in -short mode")
	}
	rows, err := Figure12(core.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	rep := Shape(rows)
	if !rep.PathologicalSkip {
		t.Fatal("secure should have been skipped")
	}
	if !rep.AllExploitable {
		t.Fatal("every defect must yield attack inputs (paper: 'In all cases, we were able to find feasible user input languages')")
	}
	if rep.FastCount != 16 {
		t.Fatalf("fast defects = %d, want 16 under %v", rep.FastCount, FastThreshold)
	}
	out := FormatFigure12(rows)
	for _, want := range []string{"secure", "(skipped)", "xw_mn", "577.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestCISweepGrowth(t *testing.T) {
	small := CISweep(8)
	big := CISweep(32)
	if small.Solutions == 0 || big.Solutions == 0 {
		t.Fatal("sweeps must produce solutions")
	}
	// |M5| grows ~quadratically: a 4× larger Q must grow the product by
	// clearly more than 4× (super-linear) and at most ~16× with slack.
	ratio := float64(big.M5States) / float64(small.M5States)
	if ratio < 6 || ratio > 40 {
		t.Fatalf("M5 growth ratio = %.1f for 4× Q; expected roughly quadratic", ratio)
	}
	// Solutions grow ~linearly in Q.
	solRatio := float64(big.Solutions) / float64(small.Solutions)
	if solRatio < 2 || solRatio > 8 {
		t.Fatalf("solution growth ratio = %.1f for 4× Q; expected roughly linear", solRatio)
	}
}

func TestChainedAndExtraSweeps(t *testing.T) {
	p2, err := ChainedSweep(6)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Solutions == 0 {
		t.Fatal("chained sweep found no solutions")
	}
	p3, err := ExtraSubsetSweep(6)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Solutions == 0 {
		t.Fatal("extra-subset sweep found no solutions")
	}
}

func TestComplexityTable(t *testing.T) {
	out, err := ComplexityTable([]int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "§3.5") || !strings.Contains(out, "single CI") {
		t.Fatalf("table malformed:\n%s", out)
	}
}

func TestAblationTable(t *testing.T) {
	rows, err := Ablation("utopia/login")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AblationVariants()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TS <= 0 {
			t.Errorf("%s: no time measured", r.Name)
		}
	}
	out := FormatAblation("utopia/login", rows)
	if !strings.Contains(out, "no-maximalize") || !strings.Contains(out, "baseline") {
		t.Fatalf("table malformed:\n%s", out)
	}
	if _, err := Ablation("no/such"); err == nil {
		t.Fatal("unknown defect must error")
	}
}
