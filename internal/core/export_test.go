package core

import "dprle/internal/nfa"

// ConstComplement returns the complement a fresh solve's constant cache
// serves for c.
func ConstComplement(c *Const) (*nfa.NFA, error) {
	return newConstCache(Options{}, nil).complement(c)
}
