package expr

import (
	"math/rand"
	"strings"
	"testing"

	"ccs/internal/fsp"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical String() rendering
	}{
		{"a", "a"},
		{"0", "0"},
		{"ab", "ab"},
		{"a.b", "ab"},
		{"a+b", "a+b"},
		{"a|b", "a+b"},
		{"a*", "a*"},
		{"a**", "a**"},
		{"(a+b)c", "(a+b)c"},
		{"a(b+c)", "a(b+c)"},
		{"(ab)*", "(ab)*"},
		{"a b c", "abc"},
		{"((a))", "a"},
		{"a+b+c", "a+b+c"},
	}
	for _, tc := range cases {
		e, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := e.String(); got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		// Round trip: parsing the rendering yields the same rendering.
		e2, err := Parse(e.String())
		if err != nil {
			t.Errorf("reparse %q: %v", e.String(), err)
			continue
		}
		if e2.String() != e.String() {
			t.Errorf("round trip changed %q -> %q", e.String(), e2.String())
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// a+bc* parses as a + (b(c*)).
	e := MustParse("a+bc*")
	u, ok := e.(Union)
	if !ok {
		t.Fatalf("top is %T, want Union", e)
	}
	c, ok := u.R.(Concat)
	if !ok {
		t.Fatalf("right of union is %T, want Concat", u.R)
	}
	if _, ok := c.R.(Star); !ok {
		t.Fatalf("right of concat is %T, want Star", c.R)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "(", "(a", "a)", "+a", "a+", "*", "()", "a%b", "a("} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestSymbols(t *testing.T) {
	e := MustParse("ab(c+a)*")
	got := Symbols(e)
	if strings.Join(got, "") != "abc" {
		t.Errorf("Symbols = %v, want [a b c]", got)
	}
}

func TestLength(t *testing.T) {
	if got := MustParse("a+b").Length(); got != 3 {
		t.Errorf("Length(a+b) = %d, want 3", got)
	}
	if got := MustParse("(ab)*").Length(); got != 4 {
		t.Errorf("Length((ab)*) = %d, want 4", got)
	}
}

// languageOf computes the language of an expression up to maxLen, directly
// from the AST semantics (independent of the representative construction).
func languageOf(e Expr, maxLen int) map[string]bool {
	switch t := e.(type) {
	case Empty:
		return map[string]bool{}
	case Sym:
		return map[string]bool{t.Name: true}
	case Union:
		out := languageOf(t.L, maxLen)
		for w := range languageOf(t.R, maxLen) {
			out[w] = true
		}
		return out
	case Concat:
		out := map[string]bool{}
		for u := range languageOf(t.L, maxLen) {
			for v := range languageOf(t.R, maxLen) {
				if len(u)+len(v) <= maxLen {
					out[u+v] = true
				}
			}
		}
		return out
	case Star:
		out := map[string]bool{"": true}
		base := languageOf(t.Sub, maxLen)
		for {
			added := false
			for u := range out {
				for v := range base {
					w := u + v
					if len(w) <= maxLen && len(v) > 0 && !out[w] {
						out[w] = true
						added = true
					}
				}
			}
			if !added {
				return out
			}
		}
	default:
		return nil
	}
}

// MustParse is Parse for statically known inputs; it panics on error.
func MustParse(input string) Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

// accepts runs the observable process f on a word: some state the word
// leads to from the start accepts.
func accepts(f *fsp.FSP, word []fsp.Action) bool {
	set := map[fsp.State]bool{f.Start(): true}
	for _, a := range word {
		next := map[fsp.State]bool{}
		for s := range set {
			for _, t := range f.Dest(s, a) {
				next[t] = true
			}
		}
		set = next
	}
	for s := range set {
		if f.Accepting(s) {
			return true
		}
	}
	return false
}

// acceptsString runs the representative on a word given as a string of
// single-letter symbols.
func acceptsString(f *fsp.FSP, word string) bool {
	acts := make([]fsp.Action, len(word))
	for i := 0; i < len(word); i++ {
		act, ok := f.Alphabet().Lookup(string(word[i]))
		if !ok {
			return false
		}
		acts[i] = act
	}
	return accepts(f, acts)
}

func TestRepresentativeLanguage(t *testing.T) {
	// The representative FSP must accept exactly the classical language.
	exprs := []string{
		"0", "a", "ab", "a+b", "a*", "(ab)*", "a(b+c)", "ab+ac",
		"(a+b)*abb", "a*b*", "(a+ab)*", "0a", "a0", "(0+a)b", "a*0",
	}
	const maxLen = 6
	for _, src := range exprs {
		e := MustParse(src)
		f, err := Representative(e)
		if err != nil {
			t.Fatalf("Representative(%q): %v", src, err)
		}
		cls := fsp.Classify(f)
		if !cls.Observable || !cls.Standard {
			t.Errorf("%q: representative must be observable standard", src)
		}
		if _, err := ToNFA(f); err != nil {
			t.Fatalf("ToNFA(%q): %v", src, err)
		}
		want := languageOf(e, maxLen)
		// Enumerate all words up to maxLen over the expression's symbols.
		syms := Symbols(e)
		var words []string
		var grow func(prefix string)
		grow = func(prefix string) {
			words = append(words, prefix)
			if len(prefix) == maxLen {
				return
			}
			for _, s := range syms {
				grow(prefix + s)
			}
		}
		grow("")
		for _, w := range words {
			if got := acceptsString(f, w); got != want[w] {
				t.Errorf("%q: word %q accepted=%v, want %v", src, w, got, want[w])
			}
		}
	}
}

func TestLemma231SizeBounds(t *testing.T) {
	// Lemma 2.3.1: representative has O(n) states — in fact at most n+1 —
	// and O(n^2) transitions for expression length n.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		e := randomExpr(rng, 1+rng.Intn(8))
		f, err := Representative(e)
		if err != nil {
			t.Fatalf("Representative(%q): %v", e, err)
		}
		n := e.Length()
		if f.NumStates() > 2*n+1 {
			t.Errorf("%q (len %d): %d states exceeds linear bound", e, n, f.NumStates())
		}
		if f.NumTransitions() > n*n+n {
			t.Errorf("%q (len %d): %d transitions exceeds quadratic bound", e, n, f.NumTransitions())
		}
	}
}

// randomExpr generates a random expression with the given number of
// operator applications.
func randomExpr(rng *rand.Rand, ops int) Expr {
	if ops <= 0 {
		switch rng.Intn(4) {
		case 0:
			return Empty{}
		default:
			return Sym{Name: string(rune('a' + rng.Intn(3)))}
		}
	}
	switch rng.Intn(3) {
	case 0:
		l := rng.Intn(ops)
		return Union{L: randomExpr(rng, l), R: randomExpr(rng, ops-1-l)}
	case 1:
		l := rng.Intn(ops)
		return Concat{L: randomExpr(rng, l), R: randomExpr(rng, ops-1-l)}
	default:
		return Star{Sub: randomExpr(rng, ops-1)}
	}
}

func TestCCSEquivalentReflexive(t *testing.T) {
	for _, src := range []string{"a", "a+b", "(ab)*", "a(b+c)"} {
		e := MustParse(src)
		eq, err := CCSEquivalent(e, e)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("%q not CCS-equivalent to itself", src)
		}
	}
}

func TestUnionCommutative(t *testing.T) {
	eq, err := CCSEquivalent(MustParse("a+b"), MustParse("b+a"))
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("a+b and b+a must be CCS-equivalent")
	}
}

func TestDistributivityFailsInCCS(t *testing.T) {
	// Section 2.3 item 3: r·(s∪t) = r·s ∪ r·t holds for languages but not
	// for CCS semantics.
	left := MustParse("a(b+c)")
	right := MustParse("ab+ac")
	lang, err := LanguageEquivalent(left, right)
	if err != nil {
		t.Fatal(err)
	}
	if !lang {
		t.Errorf("languages of a(b+c) and ab+ac must coincide")
	}
	ccsEq, err := CCSEquivalent(left, right)
	if err != nil {
		t.Fatal(err)
	}
	if ccsEq {
		t.Errorf("a(b+c) and ab+ac must NOT be CCS-equivalent")
	}
}

func TestAnnihilatorFailsInCCS(t *testing.T) {
	// Section 2.3 item 3: r·∅ = ∅ holds for languages but not in CCS: a·∅
	// can still perform the action a.
	left := MustParse("a0")
	right := MustParse("0")
	lang, err := LanguageEquivalent(left, right)
	if err != nil {
		t.Fatal(err)
	}
	if !lang {
		t.Errorf("languages of a0 and 0 must coincide (both empty)")
	}
	ccsEq, err := CCSEquivalent(left, right)
	if err != nil {
		t.Fatal(err)
	}
	if ccsEq {
		t.Errorf("a·∅ and ∅ must NOT be CCS-equivalent")
	}
}

func TestCCSEquivalenceImpliesLanguageEquivalence(t *testing.T) {
	// Proposition 2.2.3(a) restricted to standard processes: strong
	// equivalence refines language equivalence. Sample random expression
	// pairs; whenever CCS-equivalent, they must be language-equivalent.
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		e1 := randomExpr(rng, 1+rng.Intn(5))
		e2 := randomExpr(rng, 1+rng.Intn(5))
		ccsEq, err := CCSEquivalent(e1, e2)
		if err != nil {
			t.Fatal(err)
		}
		if !ccsEq {
			continue
		}
		checked++
		langEq, err := LanguageEquivalent(e1, e2)
		if err != nil {
			t.Fatal(err)
		}
		if !langEq {
			t.Fatalf("%q ~ %q but languages differ", e1, e2)
		}
	}
	if checked == 0 {
		t.Log("no CCS-equivalent pairs sampled; inclusion vacuously checked")
	}
}

func TestToNFARejectsNonStandard(t *testing.T) {
	b := fsp.NewBuilder("tau")
	b.AddStates(2)
	b.ArcName(0, fsp.TauName, 1)
	f := b.MustBuild()
	if _, err := ToNFA(f); err == nil {
		t.Error("ToNFA accepted a non-observable FSP")
	}
}
