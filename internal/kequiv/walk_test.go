package kequiv

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/reductions"
)

// twin returns a copy of p in which every state has a twin with the same
// arcs into both copies and the same acceptance: bisimilar to p, so ≈_k
// for every k, with non-trivial subset pairs.
func twin(p *fsp.FSP) *fsp.FSP {
	n := p.NumStates()
	b := fsp.NewBuilderWith(p.Name()+"²", p.Alphabet().Clone(), p.Vars().Clone())
	b.AddStates(2 * n)
	b.SetStart(p.Start())
	for s := range n {
		for _, from := range []fsp.State{fsp.State(s), fsp.State(s + n)} {
			if p.Accepting(fsp.State(s)) {
				b.Accept(from)
			}
			for _, a := range p.Arcs(fsp.State(s)) {
				b.Arc(from, a.Act, a.To)
				b.Arc(from, a.Act, a.To+fsp.State(n))
			}
		}
	}
	return b.MustBuild()
}

// TestPairWalkMatchesReference: the ≈_k pair decision and TraceWitness on
// the one subset-pair walk agree with the reference walks on random,
// restricted and tau-rich processes and on the images of the Lemma 4.2,
// Theorem 4.1(b) ladder and Theorem 5.1 reductions. An equivalent verdict
// visits no more pairs than the reference (at most one fewer), and every
// distinguishing word is accepted by exactly one side and is no longer
// than the reference's.
func TestPairWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type pair struct {
		name string
		p, q *fsp.FSP
	}
	var corpus []pair
	for i := range 40 {
		n := 2 + rng.Intn(7)
		tau := []float64{0, 0.3, 0.6}[i%3]
		p := gen.Random(rng, n, 2*n, 2, tau)
		r := gen.RandomRestricted(rng, n, 2*n, 2)
		corpus = append(corpus,
			pair{fmt.Sprintf("random-%d", i), p, gen.Random(rng, n, 2*n, 2, tau)},
			pair{fmt.Sprintf("twin-%d", i), p, twin(p)},
			pair{fmt.Sprintf("restricted-%d", i), r, gen.RandomRestricted(rng, n, 2*n, 2)},
			pair{fmt.Sprintf("restricted-twin-%d", i), r, twin(r)})
	}
	for i := range 15 {
		m, err := reductions.Lemma42(gen.RandomTotal(rng, 2+rng.Intn(3), rng.Intn(3)))
		if err != nil {
			t.Fatal(err)
		}
		p := gen.RandomRestricted(rng, 2+rng.Intn(4), 3+rng.Intn(6), 2)
		q := gen.RandomRestricted(rng, 2+rng.Intn(4), 3+rng.Intn(6), 2)
		lp, lq, err := reductions.Ladder(p, q)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := reductions.Theorem51(p)
		if err != nil {
			t.Fatal(err)
		}
		tq, err := reductions.Theorem51(q)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus,
			pair{fmt.Sprintf("lemma42-%d", i), m, reductions.TrivialNFA("a", "b")},
			pair{fmt.Sprintf("ladder-%d", i), lp, lq},
			pair{fmt.Sprintf("theorem51-%d", i), tp, tq})
	}

	bg := context.Background()
	var eqs, neqs int
	for _, c := range corpus {
		u, off, err := fsp.DisjointUnion(c.p, c.q)
		if err != nil {
			t.Fatal(err)
		}
		p, q := c.p.Start(), off+c.q.Start()
		for k := 1; k <= 3; k++ {
			eq, n, err := equivalentStates(bg, u, p, q, k)
			if err != nil {
				t.Fatal(err)
			}
			req, rn := refEquivalentStates(u, p, q, k)
			switch {
			case eq != req:
				t.Errorf("%s ≈_%d: verdict %v, reference %v", c.name, k, eq, req)
			case eq && (n > rn || rn-n > 1):
				t.Errorf("%s ≈_%d: walk visited %d pairs, reference %d", c.name, k, n, rn)
			case eq:
				eqs++
			default:
				neqs++
			}
		}

		eq, word, err := TraceWitness(c.p, c.q)
		if err != nil {
			t.Fatal(err)
		}
		req, rword, err := refTraceWitness(c.p, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if eq != req {
			t.Errorf("%s trace witness: verdict %v, reference %v", c.name, eq, req)
		}
		if eq || eq != req {
			continue
		}
		if acceptsTrace(c.p, word) == acceptsTrace(c.q, word) {
			t.Errorf("%s trace witness: word %v is accepted by both sides or neither", c.name, word)
		}
		if len(word) > len(rword) {
			t.Errorf("%s trace witness: word %v, reference %v", c.name, word, rword)
		}
	}
	t.Logf("%d equivalent and %d inequivalent ≈_k verdicts", eqs, neqs)
	if eqs == 0 || neqs == 0 {
		t.Error("want both kinds of verdict")
	}
}

// TestPairWalkStopsOnCancel: a cancelled context stops the ≈_k decision,
// in the ladder or in the top-level walk, with its error.
func TestPairWalkStopsOnCancel(t *testing.T) {
	p, q := branching()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for k := 1; k <= 3; k++ {
		if _, err := Equivalent(ctx, p, q, k); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled ≈_%d returned %v, want %v", k, err, context.Canceled)
		}
	}
}
