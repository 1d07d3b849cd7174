package expr

import (
	"strings"
	"testing"

	"ccs/internal/fsp"
)

func TestParseIntersection(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"a&b", "a&b"},
		{"a&b&c", "(a&b)&c"},
		{"a+b&c", "a+b&c"},     // & binds tighter than +
		{"(a+b)&c", "(a+b)&c"}, // parens preserved where needed
		{"ab&cd", "ab&cd"},     // concat binds tighter than &
		{"(ab)*&(a+b)", "(ab)*&(a+b)"},
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
		e2, err := Parse(e.String())
		if err != nil || e2.String() != e.String() {
			t.Errorf("round trip failed for %q", tc.in)
		}
	}
}

func TestParseIntersectionPrecedence(t *testing.T) {
	e := MustParse("a+b&c")
	u, ok := e.(Union)
	if !ok {
		t.Fatalf("top is %T, want Union", e)
	}
	if _, ok := u.R.(Inter); !ok {
		t.Fatalf("right of union is %T, want Inter", u.R)
	}
}

func TestIsExtended(t *testing.T) {
	if IsExtended(MustParse("a(b+c)*")) {
		t.Errorf("core expression flagged extended")
	}
	for _, src := range []string{"a&b", "(a&b)c", "a+(b&c)", "(a&b)*"} {
		if !IsExtended(MustParse(src)) {
			t.Errorf("%q not flagged extended", src)
		}
	}
}

func TestIntersectionLanguage(t *testing.T) {
	// (aa)* & (aaa)* has the language (a^6)*.
	e := MustParse("(aa)*&(aaa)*")
	f, err := Representative(e)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := f.Alphabet().Lookup("a")
	for l := 0; l <= 12; l++ {
		word := make([]fsp.Action, l)
		for i := range word {
			word[i] = a
		}
		want := l%6 == 0
		if got := accepts(f, word); got != want {
			t.Errorf("a^%d accepted=%v, want %v", l, got, want)
		}
	}
}

func TestIntersectionCCSEquivalence(t *testing.T) {
	// (aa)* & (aaa)* is language-equal to (aaaaaa)*.
	lang, err := LanguageEquivalent(MustParse("(aa)*&(aaa)*"), MustParse("(aaaaaa)*"))
	if err != nil {
		t.Fatal(err)
	}
	if !lang {
		t.Errorf("(aa)*&(aaa)* must have language (a^6)*")
	}
	// Intersection with Sigma* is a CCS identity up to language; up to
	// strong equivalence a&a ~ a holds (the product of the two-state
	// representative with itself is itself).
	ccsEq, err := CCSEquivalent(MustParse("a&a"), MustParse("a"))
	if err != nil {
		t.Fatal(err)
	}
	if !ccsEq {
		t.Errorf("a&a ~ a must hold")
	}
	// Intersection annihilates disjoint symbols.
	empty, err := LanguageEquivalent(MustParse("a&b"), MustParse("0"))
	if err != nil {
		t.Fatal(err)
	}
	if !empty {
		t.Errorf("a&b must denote the empty language")
	}
}

func TestIntersectionInsideCoreOperators(t *testing.T) {
	// Embedding a product inside concatenation and star must stay
	// language-correct: c((aa)*&(aa)*)  ==language==  c(aa)*.
	lang, err := LanguageEquivalent(MustParse("c((aa)*&(aa)*)"), MustParse("c(aa)*"))
	if err != nil {
		t.Fatal(err)
	}
	if !lang {
		t.Errorf("embedded intersection broke concatenation")
	}
	lang, err = LanguageEquivalent(MustParse("(a&a)*"), MustParse("a*"))
	if err != nil {
		t.Fatal(err)
	}
	if !lang {
		t.Errorf("embedded intersection broke star")
	}
}

// TestSuccinctness is the Section 6 observation made executable: nested
// intersections of cycles grow the representative multiplicatively (lcm of
// the cycle lengths) while the expression grows additively.
func TestSuccinctness(t *testing.T) {
	cases := []struct {
		src       string
		minStates int
	}{
		{"(aa)*&(aaa)*", 6},
		{"(aa)*&(aaa)*&(aaaaa)*", 30},
		{"(aa)*&(aaa)*&(aaaaa)*&(aaaaaaa)*", 210},
	}
	for _, tc := range cases {
		e := MustParse(tc.src)
		f, err := Representative(e)
		if err != nil {
			t.Fatal(err)
		}
		if f.NumStates() < tc.minStates {
			t.Errorf("%q: %d states, expected at least %d (lcm of cycles)",
				tc.src, f.NumStates(), tc.minStates)
		}
	}
	// The crisp claim: the deepest expression has ~length 30 yet a
	// representative above 200 states — states grow multiplicatively, the
	// expression only additively. Lemma 2.3.1's linear bound is strictly a
	// core-fragment property.
	deep := MustParse(cases[len(cases)-1].src)
	f, err := Representative(deep)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumStates() <= 2*deep.Length() {
		t.Errorf("succinctness not exhibited: length %d, states %d", deep.Length(), f.NumStates())
	}
}

func TestExtendedStringRendering(t *testing.T) {
	e := Inter{L: Union{L: Sym{Name: "a"}, R: Sym{Name: "b"}}, R: Sym{Name: "c"}}
	if got := e.String(); !strings.Contains(got, "(a+b)&c") {
		t.Errorf("String = %q", got)
	}
	if e.Length() != 5 {
		t.Errorf("Length = %d, want 5", e.Length())
	}
}
