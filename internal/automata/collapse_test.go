package automata_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ccs/internal/automata"
	"ccs/internal/core"
	"ccs/internal/expr"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/kequiv"
)

// toDFA determinizes f's language automaton.
func toDFA(t testing.TB, f *fsp.FSP) *automata.DFA {
	n, err := expr.ToNFA(f)
	if err != nil {
		t.Fatal(err)
	}
	return automata.Determinize(n)
}

// TestDeterministicCollapse is E10, Proposition 2.2.4: on deterministic
// processes every notion collapses to ≈_1, so ~, ≈_1 and the UNION-FIND
// DFA equivalence of the processes' languages agree on every pair.
func TestDeterministicCollapse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var eqs int
	for trial := 0; trial < 100; trial++ {
		p := gen.RandomDeterministic(rng, 2+rng.Intn(5), 2)
		q := gen.RandomDeterministic(rng, 2+rng.Intn(5), 2)
		strong, err := core.StrongEquivalent(p, q)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := kequiv.Equivalent(context.Background(), p, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		dfa, err := automata.EquivalentDFA(toDFA(t, p), toDFA(t, q))
		if err != nil {
			t.Fatal(err)
		}
		if strong != trace || trace != dfa {
			t.Fatalf("trial %d: ~ %v, ≈_1 %v, DFA equivalence %v", trial, strong, trace, dfa)
		}
		if strong {
			eqs++
		}
	}
	if eqs == 0 {
		t.Error("no equivalent pair drawn; the collapse is checked on inequivalent pairs only")
	}
}

// BenchmarkE8UniversalityDirect decides L(M) = Sigma* by the one-sided
// subset walk, the direct route E8 compares the Lemma 4.2 reduction with.
func BenchmarkE8UniversalityDirect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	nfa, err := expr.ToNFA(gen.RandomTotal(rng, 8, 8))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		automata.Universal(nfa)
	}
}

// BenchmarkE10DeterministicUnionFind times the UNION-FIND DFA equivalence
// on deterministic processes, E10's classical counterpart of ~.
func BenchmarkE10DeterministicUnionFind(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := toDFA(b, gen.RandomDeterministic(rand.New(rand.NewSource(1)), n, 2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := automata.EquivalentDFA(d, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
