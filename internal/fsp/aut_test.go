package fsp

import (
	"math/rand"
	"strings"
	"testing"
)

func restrictedFixture(t *testing.T) *FSP {
	t.Helper()
	b := NewBuilder("fix")
	b.AddStates(3)
	b.ArcName(0, "a", 1)
	b.ArcName(0, TauName, 2)
	b.ArcName(2, "b", 1)
	for s := State(0); s < 3; s++ {
		b.Accept(s)
	}
	return b.MustBuild()
}

func TestAUTRoundTrip(t *testing.T) {
	f := restrictedFixture(t)
	text, err := AUTString(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(text, "des (0, 3, 3)") {
		t.Errorf("header wrong:\n%s", text)
	}
	if !strings.Contains(text, `"i"`) {
		t.Errorf("tau should render as \"i\":\n%s", text)
	}
	back, err := ParseAUTString(text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if back.NumStates() != f.NumStates() || back.NumTransitions() != f.NumTransitions() {
		t.Errorf("round trip changed shape: %d/%d vs %d/%d",
			back.NumStates(), back.NumTransitions(), f.NumStates(), f.NumTransitions())
	}
	if got := back.Dest(0, Tau); len(got) != 1 || got[0] != 2 {
		t.Errorf("tau arc lost: %v", got)
	}
	if !Classify(back).Restricted {
		t.Errorf("parsed .aut must be restricted")
	}
}

func TestAUTRejectsNonRestricted(t *testing.T) {
	b := NewBuilder("std")
	b.AddStates(2)
	b.ArcName(0, "a", 1)
	b.Accept(1)
	if _, err := AUTString(b.MustBuild()); err == nil {
		t.Error("non-restricted process accepted by .aut writer")
	}
}

func TestAUTParseVariants(t *testing.T) {
	// mCRL2-style tau label, unquoted labels, extra whitespace.
	src := "des (1, 3, 3)\n(0, \"hello world\", 1)\n( 1 , tau , 2 )\n(2, a, 0)\n"
	f, err := ParseAUTString(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Start() != 1 {
		t.Errorf("start = %d", f.Start())
	}
	if got := f.Dest(1, Tau); len(got) != 1 || got[0] != 2 {
		t.Errorf("tau alias not mapped: %v", got)
	}
	if _, ok := f.Alphabet().Lookup("hello world"); !ok {
		t.Errorf("multi-word label lost")
	}
}

func TestAUTParseErrors(t *testing.T) {
	cases := []string{
		"",
		"nonsense\n",
		"des (0, 0)\n",
		"des (5, 0, 2)\n",
		"des (0, 0, 0)\n",
		"des (0, 1, 2)\n(0, \"a\")\n",
		"des (0, 1, 2)\n(0, \"a\", 9)\n",
		"des (0, 1, 2)\n(x, \"a\", 1)\n",
		"des (0, 1, 2)\n0, \"a\", 1\n",
		"des (0, 1, 2)\n(0, , 1)\n",
	}
	for _, src := range cases {
		if _, err := ParseAUTString(src); err == nil {
			t.Errorf("ParseAUT(%q) succeeded, want error", src)
		}
	}
}

func TestAUTRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		b := NewBuilder("r")
		b.AddStates(n)
		arcs := rng.Intn(3 * n)
		names := []string{"a", "b", TauName}
		for i := 0; i < arcs; i++ {
			b.ArcName(State(rng.Intn(n)), names[rng.Intn(3)], State(rng.Intn(n)))
		}
		for s := 0; s < n; s++ {
			b.Accept(State(s))
		}
		f := b.MustBuild()
		text, err := AUTString(f)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseAUTString(text)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, text)
		}
		if back.NumTransitions() != f.NumTransitions() || back.Start() != f.Start() {
			t.Fatalf("trial %d: round trip changed the LTS", trial)
		}
		for _, tr := range f.Transitions() {
			name := f.Alphabet().Name(tr.Act)
			act, ok := back.Alphabet().Lookup(name)
			if !ok || !back.HasArc(tr.From, act, tr.To) {
				t.Fatalf("trial %d: transition %v lost", trial, tr)
			}
		}
	}
}

// AUTString renders f in Aldebaran format.
func AUTString(f *FSP) (string, error) {
	var sb strings.Builder
	if err := WriteAUT(&sb, f); err != nil {
		return "", err
	}
	return sb.String(), nil
}
