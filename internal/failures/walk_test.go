package failures

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

// decide is the shape shared by the deciders and their references: a
// verdict, a witness on inequivalence, and the subset pairs visited.
type decide func(f *fsp.FSP, p fsp.State, g *fsp.FSP, q fsp.State) (bool, *Witness, int, error)

// checkDeciders runs ≡, completed-trace equivalence and refinement both
// ways on the start states of p and q against the reference walks. It
// wants the same verdict and error; on an equivalent verdict, no more
// visited pairs than the reference (the walks prune nothing, so at most
// one fewer); on an inequivalent one, a witness that replays and is no
// longer than the reference's. It returns how many verdicts were
// equivalent and how many not.
func checkDeciders(t *testing.T, name string, p, q *fsp.FSP) (eqs, neqs int) {
	t.Helper()
	bg := context.Background()
	for _, c := range []struct {
		rel      string
		got, ref decide
		f, g     *fsp.FSP
	}{
		{"≡", func(f *fsp.FSP, p fsp.State, g *fsp.FSP, q fsp.State) (bool, *Witness, int, error) {
			return equivalent(bg, f, p, g, q)
		}, refEquivalentStates, p, q},
		{"completed-trace", completedTraceEquivalent, refCompletedTraceEquivalentStates, p, q},
		{"refines", refines, refRefines, p, q},
		{"refined-by", refines, refRefines, q, p},
	} {
		f, g := c.f, c.g
		eq, w, n, err := c.got(f, f.Start(), g, g.Start())
		req, rw, rn, rerr := c.ref(f, f.Start(), g, g.Start())
		if (err == nil) != (rerr == nil) {
			t.Errorf("%s %s: error %v, reference error %v", name, c.rel, err, rerr)
			continue
		}
		if err != nil {
			continue
		}
		if eq != req {
			t.Errorf("%s %s: verdict %v, reference %v", name, c.rel, eq, req)
			continue
		}
		if eq {
			eqs++
			if n > rn || rn-n > 1 {
				t.Errorf("%s %s: walk visited %d pairs, reference %d", name, c.rel, n, rn)
			}
			continue
		}
		neqs++
		if err := replays(f, g, w); err != nil {
			t.Errorf("%s %s: %v", name, c.rel, err)
		}
		if len(w.Failure.Trace) > len(rw.Failure.Trace) {
			t.Errorf("%s %s: witness trace of %d actions, reference %d", name, c.rel, len(w.Failure.Trace), len(rw.Failure.Trace))
		}
	}
	return eqs, neqs
}

// replays checks that w's failure belongs to the side it names and not to
// the other, replayed with Has on the start states (in the disjoint union
// when the alphabets differ, whose alphabet the witness is written in).
func replays(f, g *fsp.FSP, w *Witness) error {
	p, q := f.Start(), g.Start()
	if !f.Alphabet().Equal(g.Alphabet()) {
		u, off, err := fsp.DisjointUnion(f, g)
		if err != nil {
			return err
		}
		f, g, q = u, u, off+q
	}
	inF, err := Has(f, p, w.Failure)
	if err != nil {
		return err
	}
	inG, err := Has(g, q, w.Failure)
	if err != nil {
		return err
	}
	if inF != w.InFirst || inG == w.InFirst {
		return fmt.Errorf("witness %s: in first %v, in second %v, InFirst %v", w.Format(), inF, inG, w.InFirst)
	}
	return nil
}

// randomRestricted returns a random restricted process over {a, b} whose
// arcs are tau moves with probability tauFrac.
func randomRestricted(rng *rand.Rand, n, arcs int, tauFrac float64) *fsp.FSP {
	b := fsp.NewBuilder(fmt.Sprintf("r%d", n))
	b.Action("a")
	b.Action("b")
	b.AddStates(n)
	for range arcs {
		act := []string{"a", "b"}[rng.Intn(2)]
		if rng.Float64() < tauFrac {
			act = fsp.TauName
		}
		b.ArcName(fsp.State(rng.Intn(n)), act, fsp.State(rng.Intn(n)))
	}
	return restricted(b, n)
}

// doubled returns a copy of the restricted process p in which every state
// has a twin with the same arcs into both copies: bisimilar to p, so
// failure equivalent, with non-trivial subset pairs.
func doubled(p *fsp.FSP) *fsp.FSP {
	n := p.NumStates()
	b := fsp.NewBuilderWith(p.Name()+"²", p.Alphabet().Clone(), p.Vars().Clone())
	b.AddStates(2 * n)
	b.SetStart(p.Start())
	for s := range n {
		for _, a := range p.Arcs(fsp.State(s)) {
			for _, from := range []fsp.State{fsp.State(s), fsp.State(s + n)} {
				b.Arc(from, a.Act, a.To)
				b.Arc(from, a.Act, a.To+fsp.State(n))
			}
		}
	}
	return restricted(b, 2*n)
}

// diffPair is one input pair of the differential test.
type diffPair struct {
	name string
	p, q *fsp.FSP
}

// diffCorpus returns random restricted and tau-rich pairs, their doubled
// (equivalent) twins, and the images of the Lemma 4.2, Theorem 4.1(b)
// ladder and Theorem 5.1 reductions.
func diffCorpus(t *testing.T) []diffPair {
	rng := rand.New(rand.NewSource(19))
	var out []diffPair
	for i := range 60 {
		n := 2 + rng.Intn(8)
		tau := []float64{0, 0.2, 0.5}[i%3]
		p := randomRestricted(rng, n, 2*n, tau)
		q := randomRestricted(rng, n, 2*n, tau)
		out = append(out,
			diffPair{fmt.Sprintf("random-%d", i), p, q},
			diffPair{fmt.Sprintf("doubled-%d", i), p, doubled(p)})
	}
	observable := func() *fsp.FSP { return gen.RandomRestricted(rng, 2+rng.Intn(5), 3+rng.Intn(8), 2) }
	for i := range 20 {
		m, err := reductions.Lemma42(gen.RandomTotal(rng, 2+rng.Intn(3), rng.Intn(3)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffPair{fmt.Sprintf("lemma42-%d", i), m, reductions.TrivialNFA("a", "b")})

		p, q := observable(), observable()
		lp, lq, err := reductions.Ladder(p, q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffPair{fmt.Sprintf("ladder-%d", i), lp, lq})

		tp, err := reductions.Theorem51(p)
		if err != nil {
			t.Fatal(err)
		}
		tq, err := reductions.Theorem51(q)
		if err != nil {
			t.Fatal(err)
		}
		tpp, err := reductions.Theorem51(doubled(p))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out,
			diffPair{fmt.Sprintf("theorem51-%d", i), tp, tq},
			diffPair{fmt.Sprintf("theorem51-doubled-%d", i), tp, tpp})
	}
	return out
}

// TestSubsetDecidersMatchReferences: the deciders on the one subset-pair
// walk agree with the reference walks they replaced on every verdict,
// visit no more pairs, and give witnesses that replay.
func TestSubsetDecidersMatchReferences(t *testing.T) {
	var eqs, neqs int
	for _, pr := range diffCorpus(t) {
		e, n := checkDeciders(t, pr.name, pr.p, pr.q)
		eqs, neqs = eqs+e, neqs+n
	}
	t.Logf("%d equivalent and %d inequivalent verdicts", eqs, neqs)
	if eqs == 0 || neqs == 0 {
		t.Error("want both kinds of verdict")
	}
}

// TestWalkStopsOnCancel: a cancelled context stops ≡ with its error.
func TestWalkStopsOnCancel(t *testing.T) {
	p, q := failurePair()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Equivalent(ctx, p, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ≡ returned %v, want %v", err, context.Canceled)
	}
}

// fuzzProcess reads a restricted process of at most 8 states over {a, b}
// with tau arcs from data: the first byte picks the state count, each
// further triple one arc (source, action, target).
func fuzzProcess(name string, data []byte) *fsp.FSP {
	n := 1
	if len(data) > 0 {
		n += int(data[0] % 8)
		data = data[1:]
	}
	b := fsp.NewBuilder(name)
	b.Action("a")
	b.Action("b")
	b.AddStates(n)
	for ; len(data) >= 3; data = data[3:] {
		act := []string{"a", "b", fsp.TauName}[data[1]%3]
		b.ArcName(fsp.State(int(data[0])%n), act, fsp.State(int(data[2])%n))
	}
	return restricted(b, n)
}

// FuzzSubsetDeciders runs ≡, completed-trace equivalence and refinement
// both ways on two fuzzed restricted processes against the reference
// walks: same verdicts, and witnesses that replay.
func FuzzSubsetDeciders(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 1, 0, 2}, []byte{3, 0, 0, 1, 0, 0, 2, 1, 0, 3})
	f.Add([]byte{3, 0, 2, 1, 1, 0, 2, 2, 1, 0}, []byte{3, 0, 0, 1, 1, 0, 2, 2, 1, 0})
	f.Add([]byte{7, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 0, 4, 4, 1, 5}, []byte{1, 0, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, pb, qb []byte) {
		checkDeciders(t, "fuzz", fuzzProcess("p", pb), fuzzProcess("q", qb))
	})
}
