package corpus

import (
	"strings"
	"testing"

	"dprle/internal/lang"
	"dprle/internal/symexec"
)

// TestExploitsValidateConcretely is the strongest end-to-end check of the
// paper's claim: for every ordinary defect, the generated attack inputs are
// fed to a concrete interpreter running the actual program. The execution
// must reach the sink (no filter may reject the inputs), and the query the
// program sends must lie in the attack language (contain a quote).
func TestExploitsValidateConcretely(t *testing.T) {
	for _, d := range Defects() {
		if d.Big {
			continue // the large-constant case; the benchmark harness replays its exploit
		}
		d := d
		t.Run(d.App+"/"+d.Name, func(t *testing.T) {
			src := MustSource(d)
			prog, err := lang.Parse(d.Name+".php", src)
			if err != nil {
				t.Fatal(err)
			}
			findings, _, err := symexec.AnalyzeSource(d.Name+".php", src, symexec.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if len(findings) != 1 {
				t.Fatalf("findings = %d", len(findings))
			}
			req := lang.Request{Get: map[string]string{}, Post: map[string]string{}}
			for name, value := range findings[0].Inputs {
				source, key, ok := strings.Cut(name, ":")
				if !ok {
					t.Fatalf("malformed input name %q", name)
				}
				switch source {
				case "GET":
					req.Get[key] = value
				case "POST":
					req.Post[key] = value
				default:
					t.Fatalf("unknown source %q", source)
				}
			}
			trace, err := lang.Execute(prog, req)
			if err != nil {
				t.Fatal(err)
			}
			if trace.Exited {
				t.Fatal("generated inputs were rejected by a filter")
			}
			if len(trace.Queries) != 1 {
				t.Fatalf("queries sent = %d, want 1", len(trace.Queries))
			}
			if !strings.Contains(trace.Queries[0], "'") {
				t.Fatalf("concrete query %q does not meet the attack policy", trace.Queries[0])
			}
		})
	}
}

// TestBenignInputsStaySafe is the negative control: digits-only inputs pass
// every filter but must produce attack-free queries.
func TestBenignInputsStaySafe(t *testing.T) {
	d, _ := DefectByName("utopia/login")
	src := MustSource(d)
	prog, err := lang.Parse("login.php", src)
	if err != nil {
		t.Fatal(err)
	}
	// Derive a benign request: the main input is a number; aux filters get
	// satisfying-but-harmless values from the analysis of the same file.
	findings, _, err := symexec.AnalyzeSource("login.php", src, symexec.DefaultConfig())
	if err != nil || len(findings) != 1 {
		t.Fatalf("analysis failed: %v/%d", err, len(findings))
	}
	req := lang.Request{Get: map[string]string{}, Post: map[string]string{}}
	for name, value := range findings[0].Inputs {
		source, key, _ := strings.Cut(name, ":")
		if source == "GET" {
			req.Get[key] = value
		} else {
			req.Post[key] = value
		}
	}
	req.Post["login_id"] = "12345" // replace the exploit with a benign value
	trace, err := lang.Execute(prog, req)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Exited || len(trace.Queries) != 1 {
		t.Fatalf("benign run rejected: %+v", trace)
	}
	if strings.Contains(trace.Queries[0], "'") {
		t.Fatal("benign input produced an attacked query")
	}
}
