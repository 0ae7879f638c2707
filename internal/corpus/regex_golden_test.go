package corpus

// Regex compilation golden: the machines the front ends compile from the
// corpus patterns must stay byte-identical, state numbering included, since
// every solver stage downstream (and so the corpus output digests) sees
// them as they are built. Each line digests the wire form of one pattern
// compiled one way: Compile or MatchLanguage, plain or case-insensitive.

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"dprle/internal/nfa"
	"dprle/internal/regex"
)

// goldenPatterns names the patterns the corpus and symexec compile: the
// ordinary defects' main filter, the auxiliary filters, the secure case's
// large filter and auxiliary alternations (bigAuxPattern depends on its
// argument mod 7), and the languages of symexec's intval, addslashes, md5
// and sha1 models.
func goldenPatterns() (names, patterns []string) {
	add := func(name, pat string) {
		names = append(names, name)
		patterns = append(patterns, pat)
	}
	add("main", `[\d]+$`)
	for i, p := range auxPatterns {
		add(fmt.Sprintf("aux%d", i), p)
	}
	add("filter", bigFilterPattern())
	for i := 0; i < 7; i++ {
		add(fmt.Sprintf("bigaux%d", i), bigAuxPattern(i))
	}
	add("intval", `-?[0-9]+`)
	add("addslashes", `([^'\\]|\\[\x00-\xff])*`)
	add("md5", `[0-9a-f]{32}`)
	add("sha1", `[0-9a-f]{40}`)
	return names, patterns
}

// regexGolden was recorded from the pairwise Concat/Union construction the
// compiler used before it laid out each concatenation and alternation in
// one pass.
const regexGolden = `
main plain compile=c1c83c0ec035d623cfb441d4 match=9048a5c7bf7eacae7eb0b88b
main fold compile=c1c83c0ec035d623cfb441d4 match=9048a5c7bf7eacae7eb0b88b
aux0 plain compile=68c82ace532955a50e647781 match=68c82ace532955a50e647781
aux0 fold compile=29977aa2dd41e9e81745ed56 match=29977aa2dd41e9e81745ed56
aux1 plain compile=c1c83c0ec035d623cfb441d4 match=c1c83c0ec035d623cfb441d4
aux1 fold compile=c1c83c0ec035d623cfb441d4 match=c1c83c0ec035d623cfb441d4
aux2 plain compile=d93a05aaca1c520db4d5e8d5 match=d93a05aaca1c520db4d5e8d5
aux2 fold compile=d93a05aaca1c520db4d5e8d5 match=d93a05aaca1c520db4d5e8d5
aux3 plain compile=b62e613d08e183d79de8b696 match=b62e613d08e183d79de8b696
aux3 fold compile=98e7b3853f00d49f57671a6c match=98e7b3853f00d49f57671a6c
aux4 plain compile=a462a83912f6aa9b76badd29 match=a462a83912f6aa9b76badd29
aux4 fold compile=07132268dd69686d3b189c35 match=07132268dd69686d3b189c35
aux5 plain compile=66e048dce36719c50738446d match=66e048dce36719c50738446d
aux5 fold compile=66e048dce36719c50738446d match=66e048dce36719c50738446d
filter plain compile=7f5b6b78d1b5e96e3abd2b78 match=ea8803a8e41f429090615044
filter fold compile=de84d5030dbcffe3206853f0 match=b2a23f7657420039a2f7cd57
bigaux0 plain compile=aa71a78c95bb4ee6e3ddb939 match=aa71a78c95bb4ee6e3ddb939
bigaux0 fold compile=e5d9ae6d3d5eea041f68e33c match=e5d9ae6d3d5eea041f68e33c
bigaux1 plain compile=f0e94c2e6669b89b28bc2fd5 match=f0e94c2e6669b89b28bc2fd5
bigaux1 fold compile=a5f0b9bf74e0d5ca5791d87f match=a5f0b9bf74e0d5ca5791d87f
bigaux2 plain compile=902babcfd373533cb72c175b match=902babcfd373533cb72c175b
bigaux2 fold compile=58867f83a84e68448bf9fe15 match=58867f83a84e68448bf9fe15
bigaux3 plain compile=28d93e2938f5d668d0275fdc match=28d93e2938f5d668d0275fdc
bigaux3 fold compile=a7c9d6cca3623087c2b2be57 match=a7c9d6cca3623087c2b2be57
bigaux4 plain compile=75d144048ee548d9e237e8cd match=75d144048ee548d9e237e8cd
bigaux4 fold compile=750cc70d0181f93ab26a59b1 match=750cc70d0181f93ab26a59b1
bigaux5 plain compile=b4b0705742bdcf03c1378e0d match=b4b0705742bdcf03c1378e0d
bigaux5 fold compile=aa337f7bf7144ef32f71e9ec match=aa337f7bf7144ef32f71e9ec
bigaux6 plain compile=ef5a86d94387a76f83b699ac match=ef5a86d94387a76f83b699ac
bigaux6 fold compile=05e5a9575e99be13de779a2a match=05e5a9575e99be13de779a2a
intval plain compile=f43aae7911952f365448e5bc match=b022784069e80c96f295dda4
intval fold compile=f43aae7911952f365448e5bc match=b022784069e80c96f295dda4
addslashes plain compile=cc4e84cc7392a813e9147883 match=4c31282aa733f0e2edea47ac
addslashes fold compile=cc4e84cc7392a813e9147883 match=4c31282aa733f0e2edea47ac
md5 plain compile=3997f46b83d971d8f7b3ed6c match=790b202ef840a8d1f93d4c74
md5 fold compile=0f43483ce60dc5cea1320f16 match=2e598c6ff6c46a10549ef780
sha1 plain compile=eb4e4d00c8cab61321f21bb5 match=9ef2c8ed9b33ded01adda8b4
sha1 fold compile=7dfef8981d7353d04c7bbb2e match=fc577da9490c5206aa6624b3
`

// digest is the first 12 bytes of the SHA-256 of m's wire form, in hex.
func digest(m *nfa.NFA) string {
	sum := sha256.Sum256([]byte(m.Marshal()))
	return fmt.Sprintf("%x", sum[:12])
}

func TestRegexCompileGolden(t *testing.T) {
	names, patterns := goldenPatterns()
	var b strings.Builder
	for i, pat := range patterns {
		r, err := regex.Parse(pat)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		for _, v := range []struct {
			mode string
			r    *regex.Regex
		}{{"plain", r}, {"fold", r.CaseInsensitive()}} {
			c, err := v.r.Compile()
			if err != nil {
				t.Fatalf("%s %s: compile: %v", names[i], v.mode, err)
			}
			m, err := v.r.MatchLanguage()
			if err != nil {
				t.Fatalf("%s %s: match language: %v", names[i], v.mode, err)
			}
			fmt.Fprintf(&b, "%s %s compile=%s match=%s\n", names[i], v.mode, digest(c), digest(m))
		}
	}
	if got, want := b.String(), strings.TrimPrefix(regexGolden, "\n"); got != want {
		t.Fatalf("compiled machines changed; got:\n%s", got)
	}
}

// TestFilterMatchLanguageAllocs gates the allocations of building the
// secure case's filter language, a 3,178-state machine. Folding its
// concatenations pairwise copied the growing machine once per piece, for
// 182,882 allocations; laid out in one pass it takes about 14,600.
func TestFilterMatchLanguageAllocs(t *testing.T) {
	r, err := regex.Parse(bigFilterPattern())
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.MatchLanguage()
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 3178 {
		t.Fatalf("filter language has %d states, want 3,178", m.NumStates())
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := r.MatchLanguage(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 25000 {
		t.Fatalf("building the filter language allocated %.0f times, want at most 25,000", allocs)
	}
}
