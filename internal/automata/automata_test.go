package automata

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// evenAs returns a DFA over {0,1} accepting words with an even number of 0s.
func evenAs(t *testing.T) *DFA {
	t.Helper()
	d := MustDFA(2, 2, 0)
	d.SetAccept(0, true)
	mustArc(t, d.SetArc(0, 0, 1))
	mustArc(t, d.SetArc(0, 1, 0))
	mustArc(t, d.SetArc(1, 0, 0))
	mustArc(t, d.SetArc(1, 1, 1))
	return d
}

func mustArc(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("arc: %v", err)
	}
}

func TestDFAAcceptsWord(t *testing.T) {
	d := evenAs(t)
	cases := []struct {
		word []int
		want bool
	}{
		{nil, true},
		{[]int{0}, false},
		{[]int{0, 0}, true},
		{[]int{1, 1, 1}, true},
		{[]int{0, 1, 0}, true},
		{[]int{0, 1, 1}, false},
		{[]int{9}, false},
	}
	for _, tc := range cases {
		if got := d.AcceptsWord(tc.word); got != tc.want {
			t.Errorf("AcceptsWord(%v) = %v, want %v", tc.word, got, tc.want)
		}
	}
}

func TestNFAConstruction(t *testing.T) {
	n := MustNFA(3, 2, 0)
	if err := n.AddArc(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.AddArc(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := n.AddArc(0, 0, 1); err != nil { // duplicate
		t.Fatal(err)
	}
	if n.NumArcs() != 2 {
		t.Errorf("NumArcs = %d, want 2 (duplicates ignored)", n.NumArcs())
	}
	if err := n.AddArc(0, 5, 1); err == nil {
		t.Error("bad symbol accepted")
	}
	if err := n.AddArc(0, 0, 9); err == nil {
		t.Error("bad target accepted")
	}
	if _, err := NewNFA(0, 1, 0); err == nil {
		t.Error("zero states accepted")
	}
	if _, err := NewNFA(2, 1, 5); err == nil {
		t.Error("bad start accepted")
	}
}

// abStarNFA accepts (ab)* over {a=0, b=1}, nondeterministically padded.
func abStarNFA(t *testing.T) *NFA {
	t.Helper()
	n := MustNFA(3, 2, 0)
	n.SetAccept(0, true)
	mustArc(t, n.AddArc(0, 0, 1))
	mustArc(t, n.AddArc(1, 1, 0))
	mustArc(t, n.AddArc(0, 0, 2)) // dead-end copy of the a-move
	return n
}

func TestDeterminize(t *testing.T) {
	n := abStarNFA(t)
	d := Determinize(n)
	words := [][]int{nil, {0}, {0, 1}, {0, 1, 0, 1}, {1}, {0, 0}, {0, 1, 0}}
	for _, w := range words {
		if got, want := d.AcceptsWord(w), n.AcceptsWord(w); got != want {
			t.Errorf("word %v: DFA %v, NFA %v", w, got, want)
		}
	}
}

func TestMinimize(t *testing.T) {
	// Build a redundant DFA for "even number of 0s" with duplicated states.
	d := MustDFA(4, 2, 0)
	d.SetAccept(0, true)
	d.SetAccept(2, true)
	// states 0,2 equivalent; 1,3 equivalent.
	mustArc(t, d.SetArc(0, 0, 1))
	mustArc(t, d.SetArc(0, 1, 2))
	mustArc(t, d.SetArc(2, 0, 3))
	mustArc(t, d.SetArc(2, 1, 0))
	mustArc(t, d.SetArc(1, 0, 2))
	mustArc(t, d.SetArc(1, 1, 3))
	mustArc(t, d.SetArc(3, 0, 0))
	mustArc(t, d.SetArc(3, 1, 1))
	min := d.Minimize()
	if min.NumStates() != 2 {
		t.Errorf("minimized to %d states, want 2", min.NumStates())
	}
	eq, err := EquivalentDFA(d, min)
	if err != nil || !eq {
		t.Errorf("minimized DFA not equivalent: %v %v", eq, err)
	}
	moore := d.minimizeWith(moore)
	if moore.NumStates() != 2 {
		t.Errorf("Moore minimized to %d states, want 2", moore.NumStates())
	}
}

func TestMinimizeDropsUnreachable(t *testing.T) {
	d := MustDFA(3, 1, 0)
	mustArc(t, d.SetArc(0, 0, 0))
	mustArc(t, d.SetArc(1, 0, 2)) // unreachable island
	mustArc(t, d.SetArc(2, 0, 1))
	d.SetAccept(1, true)
	min := d.Minimize()
	if min.NumStates() != 1 {
		t.Errorf("minimized to %d states, want 1", min.NumStates())
	}
}

func TestEquivalentDFA(t *testing.T) {
	a := evenAs(t)
	b := evenAs(t)
	eq, err := EquivalentDFA(a, b)
	if err != nil || !eq {
		t.Fatalf("identical DFAs not equivalent: %v %v", eq, err)
	}
	b.SetAccept(1, true)
	eq, err = EquivalentDFA(a, b)
	if err != nil || eq {
		t.Fatalf("different DFAs reported equivalent")
	}
	c := MustDFA(1, 3, 0)
	if _, err := EquivalentDFA(a, c); err == nil {
		t.Error("alphabet mismatch not reported")
	}
}

func TestEquivalentNFA(t *testing.T) {
	a := abStarNFA(t)
	b := abStarNFA(t)
	eq, w, err := EquivalentNFA(a, b)
	if err != nil || !eq || w != nil {
		t.Fatalf("identical NFAs: eq=%v w=%v err=%v", eq, w, err)
	}
	// c accepts (ab)* plus the word "a".
	c := abStarNFA(t)
	c.SetAccept(1, true)
	eq, w, err = EquivalentNFA(a, c)
	if err != nil || eq {
		t.Fatalf("different NFAs reported equivalent")
	}
	if a.AcceptsWord(w) == c.AcceptsWord(w) {
		t.Errorf("witness %v does not distinguish", w)
	}
	if len(w) != 1 || w[0] != 0 {
		t.Errorf("shortest witness should be [0], got %v", w)
	}
}

func TestUniversal(t *testing.T) {
	// Sigma* automaton: single accepting state with self loops.
	u := MustNFA(1, 2, 0)
	u.SetAccept(0, true)
	mustArc(t, u.AddArc(0, 0, 0))
	mustArc(t, u.AddArc(0, 1, 0))
	ok, w := Universal(u)
	if !ok || w != nil {
		t.Fatalf("Sigma* not universal: %v %v", ok, w)
	}

	n := abStarNFA(t)
	ok, w = Universal(n)
	if ok {
		t.Fatal("(ab)* reported universal")
	}
	if n.AcceptsWord(w) {
		t.Errorf("witness %v is accepted", w)
	}
	if len(w) != 1 {
		t.Errorf("shortest rejected word should have length 1, got %v", w)
	}
}

// randomNFA generates a random NFA for cross-validation.
func randomNFA(rng *rand.Rand, states, symbols, arcs int) *NFA {
	n := MustNFA(states, symbols, int32(rng.Intn(states)))
	for i := 0; i < arcs; i++ {
		_ = n.AddArc(int32(rng.Intn(states)), rng.Intn(symbols), int32(rng.Intn(states)))
	}
	for s := 0; s < states; s++ {
		n.SetAccept(int32(s), rng.Intn(2) == 0)
	}
	return n
}

// enumWords enumerates all words over symbols of length <= maxLen.
func enumWords(symbols, maxLen int) [][]int {
	out := [][]int{{}}
	frontier := [][]int{{}}
	for l := 0; l < maxLen; l++ {
		var next [][]int
		for _, w := range frontier {
			for s := 0; s < symbols; s++ {
				nw := append(append([]int{}, w...), s)
				next = append(next, nw)
				out = append(out, nw)
			}
		}
		frontier = next
	}
	return out
}

func TestDeterminizeAgreesWithNFAOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := enumWords(2, 5)
	for trial := 0; trial < 100; trial++ {
		n := randomNFA(rng, 2+rng.Intn(5), 2, rng.Intn(12))
		d := Determinize(n)
		min := d.Minimize()
		moore := d.minimizeWith(moore)
		if min.NumStates() != moore.NumStates() {
			t.Fatalf("trial %d: Hopcroft %d states vs Moore %d", trial, min.NumStates(), moore.NumStates())
		}
		for _, w := range words {
			want := n.AcceptsWord(w)
			if d.AcceptsWord(w) != want || min.AcceptsWord(w) != want {
				t.Fatalf("trial %d: disagreement on %v", trial, w)
			}
		}
	}
}

func TestEquivalentNFAAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	words := enumWords(2, 6)
	for trial := 0; trial < 150; trial++ {
		a := randomNFA(rng, 2+rng.Intn(4), 2, rng.Intn(9))
		b := randomNFA(rng, 2+rng.Intn(4), 2, rng.Intn(9))
		eq, w, err := EquivalentNFA(a, b)
		if err != nil {
			t.Fatal(err)
		}
		brute := true
		for _, word := range words {
			if a.AcceptsWord(word) != b.AcceptsWord(word) {
				brute = false
				break
			}
		}
		// Brute force only checks short words; when it says "different" the
		// checker must agree. When the checker says different, the witness
		// must be real.
		if !brute && eq {
			t.Fatalf("trial %d: checker says equal, brute force found difference", trial)
		}
		if !eq && a.AcceptsWord(w) == b.AcceptsWord(w) {
			t.Fatalf("trial %d: witness %v does not distinguish", trial, w)
		}
	}
}

func TestDFAEquivalenceAgreesWithNFAEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		a := randomNFA(rng, 2+rng.Intn(4), 2, rng.Intn(9))
		b := randomNFA(rng, 2+rng.Intn(4), 2, rng.Intn(9))
		nfaEq, _, err := EquivalentNFA(a, b)
		if err != nil {
			t.Fatal(err)
		}
		dfaEq, err := EquivalentDFA(Determinize(a), Determinize(b))
		if err != nil {
			t.Fatal(err)
		}
		if nfaEq != dfaEq {
			t.Fatalf("trial %d: NFA equivalence %v, DFA equivalence %v", trial, nfaEq, dfaEq)
		}
	}
}

// walkNFA runs the walk EquivalentNFA (two NFAs) or Universal (one) runs,
// for its count of visited pairs.
func walkNFA(ns ...*NFA) int {
	agree := func(a, b bool) bool { return a == b }
	if len(ns) == 1 {
		agree = func(a, _ bool) bool { return a }
	}
	var sides []Side[bool]
	for _, n := range ns {
		s := n.subsets()
		sides = append(sides, Side[bool]{Subsets: s, Root: Intern(s, []int32{n.start})})
	}
	_, visited, err := Walk(context.Background(), sides, agree)
	if err != nil {
		panic(err)
	}
	return visited
}

// TestWalkMatchesReferences: Determinize, EquivalentNFA and Universal on
// the one subset walk agree with the reference walks they replaced. The
// DFAs are identical, state numbering included; verdicts agree; an
// equivalent or universal verdict visits no more pairs than the reference,
// which also enqueues (∅, ∅); every witness is no longer than the
// reference's, and replays: an equivalence witness is accepted by exactly
// one side, a universality witness is rejected.
func TestWalkMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var eqs, neqs int
	for trial := 0; trial < 300; trial++ {
		symbols := 1 + rng.Intn(3)
		a := randomNFA(rng, 1+rng.Intn(7), symbols, rng.Intn(16))
		b := randomNFA(rng, 1+rng.Intn(7), symbols, rng.Intn(16))
		if trial%3 == 0 {
			b = Determinize(a).nfa() // equivalent by construction
		}

		if d, ref := Determinize(a), refDeterminize(a); !reflect.DeepEqual(d, ref) {
			t.Fatalf("trial %d: Determinize differs from the reference:\n%+v\n%+v", trial, d, ref)
		}

		eq, w, err := EquivalentNFA(a, b)
		if err != nil {
			t.Fatal(err)
		}
		req, rw, rn, _ := refEquivalentNFA(a, b)
		switch {
		case eq != req:
			t.Fatalf("trial %d: EquivalentNFA %v, reference %v", trial, eq, req)
		case eq:
			eqs++
			if n := walkNFA(a, b); n > rn || rn-n > 1 {
				t.Errorf("trial %d: equivalence walk visited %d pairs, reference %d", trial, n, rn)
			}
		default:
			neqs++
			if a.AcceptsWord(w) == b.AcceptsWord(w) || len(w) > len(rw) {
				t.Errorf("trial %d: witness %v (reference %v) does not replay", trial, w, rw)
			}
		}

		uni, uw := Universal(a)
		runi, ruw, rn := refUniversal(a)
		switch {
		case uni != runi:
			t.Fatalf("trial %d: Universal %v, reference %v", trial, uni, runi)
		case uni:
			if n := walkNFA(a); n != rn {
				t.Errorf("trial %d: universality walk visited %d subsets, reference %d", trial, n, rn)
			}
		case a.AcceptsWord(uw) || len(uw) > len(ruw):
			t.Errorf("trial %d: rejected word %v (reference %v) does not replay", trial, uw, ruw)
		}
	}
	if eqs == 0 || neqs == 0 {
		t.Errorf("%d equivalent and %d inequivalent trials; want both", eqs, neqs)
	}
}

// nfa views a DFA as an NFA.
func (d *DFA) nfa() *NFA {
	n := MustNFA(d.numStates, d.numSymbols, d.start)
	for s := range d.numStates {
		n.SetAccept(int32(s), d.accept[s])
		for sym, to := range d.delta[s] {
			_ = n.AddArc(int32(s), sym, to)
		}
	}
	return n
}

// AcceptsWord runs the DFA on one word.
func (d *DFA) AcceptsWord(word []int) bool {
	s := d.start
	for _, sym := range word {
		if sym < 0 || sym >= d.numSymbols {
			return false
		}
		s = d.delta[s][sym]
	}
	return d.accept[s]
}

// smallNFAs returns 40 random NFAs of 3–7 states over two symbols, the
// size where a walk's fixed cost shows.
func smallNFAs() []*NFA {
	rng := rand.New(rand.NewSource(29))
	out := make([]*NFA, 40)
	for i := range out {
		n := 3 + rng.Intn(5)
		out[i] = randomNFA(rng, n, 2, 2*n)
	}
	return out
}

func BenchmarkUniversal(b *testing.B) {
	nfas := smallNFAs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Universal(nfas[i%len(nfas)])
	}
}

func BenchmarkEquivalentNFA(b *testing.B) {
	nfas := smallNFAs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := EquivalentNFA(nfas[i%len(nfas)], nfas[(i+1)%len(nfas)]); err != nil {
			b.Fatal(err)
		}
	}
}
