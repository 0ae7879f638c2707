package analysis

import (
	"go/token"
	"reflect"
	"testing"
)

func fakeFinding(analyzer, file string, line, col int) Finding {
	return Finding{
		Analyzer: analyzer,
		Pos:      token.Position{Filename: file, Line: line, Column: col},
		Message:  "m",
	}
}

// TestSortFindings pins the global output order: file, then line, then
// column, then analyzer name — the contract that keeps multi-package
// -json output byte-stable.
func TestSortFindings(t *testing.T) {
	in := []Finding{
		fakeFinding("nilness", "b.go", 1, 1),
		fakeFinding("cachekey", "a.go", 9, 2),
		fakeFinding("sharemut", "a.go", 3, 7),
		fakeFinding("nilness", "a.go", 3, 7),
		fakeFinding("budgetflow", "a.go", 3, 2),
	}
	SortFindings(in)
	var got []string
	for _, f := range in {
		got = append(got, f.Pos.Filename+":"+f.Analyzer)
	}
	want := []string{
		"a.go:budgetflow", // a.go:3:2
		"a.go:nilness",    // a.go:3:7 — analyzer breaks the tie
		"a.go:sharemut",   // a.go:3:7
		"a.go:cachekey",   // a.go:9:2
		"b.go:nilness",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortFindings order = %v, want %v", got, want)
	}
}
