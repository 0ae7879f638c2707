package regex

import (
	"errors"
	"fmt"

	"dprle/internal/nfa"
)

// ErrPatternTooLarge reports a pattern whose compiled NFA would exceed
// maxCompiledStates. Compile and MatchLanguage wrap it, so callers can test
// with errors.Is.
var ErrPatternTooLarge = errors.New("pattern too large")

// maxCompiledStates bounds the NFA a single pattern may expand to. Bounded
// repeats compile by copying ({n} concatenates n copies of the sub-machine),
// so although the parser caps each individual bound at 1000, nested bounds
// multiply: a{999}{999} names a million-state machine. User input reaches
// Compile through the textio and lang front ends, so a hostile pattern must
// fail fast with a wrapped error instead of hanging.
const maxCompiledStates = 1 << 14

// checkSize enforces maxCompiledStates on the state count of a partially
// built machine.
func checkSize(states int) error {
	if states > maxCompiledStates {
		return fmt.Errorf("regex: compiled NFA exceeds %d states (nested bounded repeats multiply): %w",
			maxCompiledStates, ErrPatternTooLarge)
	}
	return nil
}

// pieces gathers the operands of a concatenation, checking the size of the
// machine they will make before each is added. The machine starts with ε,
// as compiled concatenations always have: dropping it would renumber every
// compiled machine, and with them the solver's output order.
type pieces struct {
	ms     []*nfa.NFA
	states int
}

func newPieces() *pieces {
	eps := nfa.Epsilon()
	return &pieces{ms: []*nfa.NFA{eps}, states: eps.NumStates()}
}

func (p *pieces) add(m *nfa.NFA) error {
	p.states += m.NumStates()
	if err := checkSize(p.states); err != nil {
		return err
	}
	p.ms = append(p.ms, m)
	return nil
}

// Compile returns an NFA for the exact language of the pattern. This is the
// interpretation used for constraint constants; anchors are only permitted at
// the boundaries of the pattern (or of a top-level alternative), where they
// are redundant for the exact-language reading and compile to ε.
func (r *Regex) Compile() (*nfa.NFA, error) {
	stripped, _, _, err := stripAnchors(r.ast)
	if err != nil {
		return nil, err
	}
	return compile(stripped)
}

// MustCompile parses and compiles a pattern, panicking on error.
func MustCompile(pattern string) *nfa.NFA {
	m, err := MustParse(pattern).Compile()
	if err != nil {
		panic(err)
	}
	return m
}

// MatchLanguage returns an NFA for the set of subject strings on which
// preg_match(pattern, subject) succeeds: an unanchored side admits arbitrary
// Σ* padding. For a top-level alternation each branch is padded according to
// its own anchors.
func (r *Regex) MatchLanguage() (*nfa.NFA, error) {
	branches := []node{r.ast}
	if alt, ok := r.ast.(altNode); ok {
		branches = alt.branches
	}
	var machines []*nfa.NFA
	for _, b := range branches {
		core, left, right, err := stripAnchors(b)
		if err != nil {
			return nil, err
		}
		m, err := compile(core)
		if err != nil {
			return nil, err
		}
		var padded []*nfa.NFA
		if !left {
			padded = append(padded, sigmaStar())
		}
		padded = append(padded, m)
		if !right {
			padded = append(padded, sigmaStar())
		}
		machines = append(machines, nfa.ConcatAll(padded...))
	}
	return nfa.UnionAll(machines...), nil
}

// MustMatchLanguage parses a pattern and builds its match language,
// panicking on error.
func MustMatchLanguage(pattern string) *nfa.NFA {
	m, err := MustParse(pattern).MatchLanguage()
	if err != nil {
		panic(err)
	}
	return m
}

// CaseInsensitive returns a regex denoting the case-folded language of r:
// every ASCII letter (in literals and classes) matches both cases, the
// semantics of PCRE's /i flag over the byte alphabet.
func (r *Regex) CaseInsensitive() *Regex {
	return &Regex{src: r.src + " (case-insensitive)", ast: foldCase(r.ast)}
}

func foldCase(n node) node {
	switch n := n.(type) {
	case litNode:
		// Each letter becomes a two-member class; split the literal at
		// letters so non-letter runs stay literals.
		var parts []node
		run := ""
		flush := func() {
			if run != "" {
				parts = append(parts, litNode{s: run})
				run = ""
			}
		}
		for i := 0; i < len(n.s); i++ {
			c := n.s[i]
			if isASCIILetter(c) {
				flush()
				set := nfa.Singleton(c)
				set.Add(swapCase(c))
				parts = append(parts, classNode{set: set})
			} else {
				run += string([]byte{c})
			}
		}
		flush()
		switch len(parts) {
		case 0:
			return litNode{s: ""}
		case 1:
			return parts[0]
		default:
			return concatNode{parts: parts}
		}
	case classNode:
		set := n.set
		for c := byte('a'); c <= 'z'; c++ {
			if set.Contains(c) {
				set.Add(c - 32)
			}
			if set.Contains(c - 32) {
				set.Add(c)
			}
		}
		return classNode{set: set}
	case concatNode:
		parts := make([]node, len(n.parts))
		for i, p := range n.parts {
			parts[i] = foldCase(p)
		}
		return concatNode{parts: parts}
	case altNode:
		branches := make([]node, len(n.branches))
		for i, b := range n.branches {
			branches[i] = foldCase(b)
		}
		return altNode{branches: branches}
	case repeatNode:
		return repeatNode{sub: foldCase(n.sub), min: n.min, max: n.max}
	default:
		return n
	}
}

func isASCIILetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func swapCase(c byte) byte {
	if c >= 'a' && c <= 'z' {
		return c - 32
	}
	return c + 32
}

func sigmaStar() *nfa.NFA {
	return nfa.Star(nfa.Class(nfa.AnyByte()))
}

// stripAnchors removes boundary anchors from a branch and reports which sides
// were anchored. Anchors anywhere else are an error: the exact-language
// semantics of an interior anchor (usually ∅) is almost always a bug in the
// analyzed program, and the paper's dialect does not use them.
func stripAnchors(n node) (core node, left, right bool, err error) {
	parts := []node{n}
	if c, ok := n.(concatNode); ok {
		parts = append([]node(nil), c.parts...)
	}
	if len(parts) > 0 {
		if a, ok := parts[0].(anchorNode); ok && !a.end {
			left = true
			parts = parts[1:]
		}
	}
	if len(parts) > 0 {
		if a, ok := parts[len(parts)-1].(anchorNode); ok && a.end {
			right = true
			parts = parts[:len(parts)-1]
		}
	}
	for _, p := range parts {
		if err := checkNoAnchors(p); err != nil {
			return nil, false, false, err
		}
	}
	switch len(parts) {
	case 0:
		return litNode{s: ""}, left, right, nil
	case 1:
		return parts[0], left, right, nil
	default:
		return concatNode{parts: parts}, left, right, nil
	}
}

func checkNoAnchors(n node) error {
	switch n := n.(type) {
	case anchorNode:
		return fmt.Errorf("regex: anchor %v not at a pattern boundary", n)
	case concatNode:
		for _, p := range n.parts {
			if err := checkNoAnchors(p); err != nil {
				return err
			}
		}
	case altNode:
		for _, b := range n.branches {
			if err := checkNoAnchors(b); err != nil {
				return err
			}
		}
	case repeatNode:
		return checkNoAnchors(n.sub)
	}
	return nil
}

// compile translates an anchor-free AST into an NFA by Thompson's
// construction, using the nfa package's combinators. A concatenation or an
// alternation is laid out in one pass over its compiled operands, so it
// copies each operand once rather than once per fold step. A piece nested
// in several groups is still copied once per enclosing construct.
func compile(n node) (*nfa.NFA, error) {
	switch n := n.(type) {
	case litNode:
		return nfa.Literal(n.s), nil
	case classNode:
		if n.set.IsEmpty() {
			return nfa.Empty(), nil
		}
		return nfa.Class(n.set), nil
	case concatNode:
		ps := newPieces()
		for _, p := range n.parts {
			m, err := compile(p)
			if err != nil {
				return nil, err
			}
			if err := ps.add(m); err != nil {
				return nil, err
			}
		}
		return nfa.ConcatAll(ps.ms...), nil
	case altNode:
		var ms []*nfa.NFA
		for _, b := range n.branches {
			m, err := compile(b)
			if err != nil {
				return nil, err
			}
			ms = append(ms, m)
		}
		out := nfa.UnionAll(ms...)
		if err := checkSize(out.NumStates()); err != nil {
			return nil, err
		}
		return out, nil
	case repeatNode:
		return compileRepeat(n)
	case anchorNode:
		return nil, fmt.Errorf("regex: anchor %v not at a pattern boundary", n)
	}
	return nil, fmt.Errorf("regex: unknown AST node %T", n)
}

func compileRepeat(n repeatNode) (*nfa.NFA, error) {
	// One compiled copy of the sub-pattern serves every repetition, since
	// ConcatAll copies its operands into a fresh machine. Each copy is
	// size-checked before it is added, so a nested bound trips
	// ErrPatternTooLarge after O(cap) work instead of expanding min·|sub|
	// states.
	sub, err := compile(n.sub)
	if err != nil {
		return nil, err
	}
	ps := newPieces()
	// Required prefix: min copies.
	for i := 0; i < n.min; i++ {
		if err := ps.add(sub); err != nil {
			return nil, err
		}
	}
	switch {
	case n.max < 0:
		if err := ps.add(nfa.Star(sub)); err != nil {
			return nil, err
		}
	case n.max > n.min:
		opt := nfa.Optional(sub)
		for i := n.min; i < n.max; i++ {
			if err := ps.add(opt); err != nil {
				return nil, err
			}
		}
	}
	return nfa.ConcatAll(ps.ms...), nil
}
