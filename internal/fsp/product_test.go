package fsp

import (
	"testing"
)

// lang collects the accepted words of a standard observable FSP up to
// maxLen, by direct subset simulation (test helper).
func lang(f *FSP, maxLen int) map[string]bool {
	out := map[string]bool{}
	type node struct {
		set  []State
		word string
	}
	clo := TauClosure(f)
	queue := []node{{set: clo.Of(f.start)}}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, s := range cur.set {
			if f.Accepting(s) {
				out[cur.word] = true
				break
			}
		}
		if len(cur.word) >= maxLen {
			continue
		}
		for _, sigma := range f.alphabet.Observable() {
			next := WeakDestSet(f, clo, cur.set, sigma)
			if len(next) == 0 {
				continue
			}
			queue = append(queue, node{set: next, word: cur.word + f.alphabet.Name(sigma)})
		}
	}
	return out
}

func TestCoName(t *testing.T) {
	if CoName("a") != "a'" || CoName("a'") != "a" {
		t.Errorf("CoName wrong: %q %q", CoName("a"), CoName("a'"))
	}
	if CoName(CoName("send")) != "send" {
		t.Errorf("CoName not involutive")
	}
}

func TestIntersectLanguages(t *testing.T) {
	// L1 = words over {a,b} with at least one a (reaching accept).
	b1 := NewBuilder("hasA")
	b1.AddStates(2)
	b1.ArcName(0, "a", 1)
	b1.ArcName(0, "b", 0)
	b1.ArcName(1, "a", 1)
	b1.ArcName(1, "b", 1)
	b1.Accept(1)
	f := b1.MustBuild()

	// L2 = words of even length.
	b2 := NewBuilder("even")
	b2.AddStates(2)
	b2.ArcName(0, "a", 1)
	b2.ArcName(0, "b", 1)
	b2.ArcName(1, "a", 0)
	b2.ArcName(1, "b", 0)
	b2.Accept(0)
	g := b2.MustBuild()

	prod, err := Intersect(f, g)
	if err != nil {
		t.Fatal(err)
	}
	lf, lg, lp := lang(f, 4), lang(g, 4), lang(prod, 4)
	for w := range lf {
		want := lf[w] && lg[w]
		if lp[w] != want {
			t.Errorf("word %q: product %v, want %v", w, lp[w], want)
		}
	}
	for w := range lp {
		if !lf[w] || !lg[w] {
			t.Errorf("product accepts %q outside the intersection", w)
		}
	}
}

func TestIntersectInterleavesTau(t *testing.T) {
	// f = tau.a (accepting end), g = a (accepting end): intersection must
	// still accept "a" since tau is internal.
	b1 := NewBuilder("")
	b1.AddStates(3)
	b1.ArcName(0, TauName, 1)
	b1.ArcName(1, "a", 2)
	b1.Accept(2)
	f := b1.MustBuild()

	b2 := NewBuilder("")
	b2.AddStates(2)
	b2.ArcName(0, "a", 1)
	b2.Accept(1)
	g := b2.MustBuild()

	prod, err := Intersect(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if !lang(prod, 2)["a"] {
		t.Errorf("intersection lost the word a across a tau move")
	}
}

func TestIntersectStartExtension(t *testing.T) {
	b1 := NewBuilder("")
	b1.AddStates(1)
	b1.Accept(0)
	f := b1.MustBuild()
	b2 := NewBuilder("")
	b2.AddStates(1)
	b2.Accept(0)
	g := b2.MustBuild()
	prod, err := Intersect(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Accepting(prod.Start()) {
		t.Errorf("intersection of accepting starts must accept")
	}
	// One side not accepting: intersection not accepting.
	b3 := NewBuilder("")
	b3.AddStates(1)
	h := b3.MustBuild()
	prod2, err := Intersect(f, h)
	if err != nil {
		t.Fatal(err)
	}
	if prod2.Accepting(prod2.Start()) {
		t.Errorf("intersection with non-accepting side must not accept")
	}
}
