package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ccs/internal/core"
	"ccs/internal/failures"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/kequiv"
)

// decisionCounts reads ccs_engine_pair_decisions_total by outcome.
func decisionCounts() map[string]int64 {
	out := map[string]int64{}
	for by, n := range pairDecisions {
		out[by] = n.Value()
	}
	return out
}

// oneShot decides a Strong, Weak or Congruence query without the engine.
func oneShot(rel Relation, p, q *fsp.FSP) (bool, error) {
	switch rel {
	case Strong:
		return core.StrongEquivalent(p, q)
	case Weak:
		return core.WeakEquivalent(p, q)
	default:
		return core.ObservationCongruent(p, q)
	}
}

// TestCheckChainBeyondCap: the quotients of a long chain hit the signature
// round cap, so the records leave its pairs open; the engine's verdicts
// must still match the one-shot deciders, through the partition solve.
func TestCheckChainBeyondCap(t *testing.T) {
	chain := func(b int) *fsp.FSP {
		bl := fsp.NewBuilder("chain")
		bl.AddStates(41)
		for i := 0; i < 40; i++ {
			act := "a"
			if i == b {
				act = "b"
			}
			bl.ArcName(fsp.State(i), act, fsp.State(i+1))
		}
		return bl.MustBuild()
	}
	p := chain(20)
	c := New()
	ctx := context.Background()
	for _, q := range []*fsp.FSP{permuted(rand.New(rand.NewSource(1)), p), chain(19)} {
		for _, rel := range []Relation{Strong, Weak, Congruence} {
			before := decisionCounts()
			got, err := c.Check(ctx, Query{P: p, Q: q, Rel: rel})
			if err != nil {
				t.Fatal(err)
			}
			want, err := oneShot(rel, p, q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%v %s vs %s: engine=%v direct=%v", rel, p.Name(), q.Name(), got, want)
			}
			if n := decisionCounts()["partition"] - before["partition"]; n != 1 {
				t.Errorf("%v %s vs %s: %d partition decisions, want 1", rel, p.Name(), q.Name(), n)
			}
		}
	}
}

// TestGalleriesDecidedBySignature: every pair query of the Fig. 2 gallery
// and every minimize-then-compose check of the network and protocol
// galleries is settled by the signature records, with the documented
// verdicts and no partition solve.
func TestGalleriesDecidedBySignature(t *testing.T) {
	c := New()
	ctx := context.Background()
	before := decisionCounts()
	for _, g := range gen.Fig2Gallery() {
		for _, rel := range []Relation{Strong, Weak, Congruence, Trace, Failure} {
			got, err := c.Check(ctx, Query{P: g.P, Q: g.Q, Rel: rel})
			if err != nil {
				t.Fatal(err)
			}
			var want bool
			switch rel {
			case Weak:
				want = g.Weak
			case Trace:
				want = g.Trace
			case Failure:
				want = g.Failure
			default:
				if want, err = oneShot(rel, g.P, g.Q); err != nil {
					t.Fatal(err)
				}
			}
			if got != want {
				t.Errorf("%s under %v: %v, want %v", g.Name, rel, got, want)
			}
		}
	}
	nets := append(gen.NetworkGallery(), gen.ProtocolGallery()...)
	for _, e := range nets {
		got, err := c.CheckNetwork(ctx, e.Net, e.Spec, Weak, 0)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if got != e.Weak {
			t.Errorf("%s: %v, want %v", e.Name, got, e.Weak)
		}
	}
	after := decisionCounts()
	if n := after["partition"] - before["partition"]; n != 0 {
		t.Errorf("%d gallery pairs fell back to the partition solve", n)
	}
	if after["signature"] == before["signature"] || after["isomorphism"] == before["isomorphism"] {
		t.Errorf("decisions %v → %v: want both signature and isomorphism outcomes", before, after)
	}
}

// TestFailureDecisions: a failure pair is decided on the ≈-quotients'
// records when they prove ≈, and by the subset walk on the quotients
// otherwise: a permuted copy counts one isomorphism decision, a marked
// copy one failures decision.
func TestFailureDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := gen.RandomRestricted(rng, 20, 60, 3)
	q := permuted(rng, p)
	c := New()
	for _, tc := range []struct {
		q    *fsp.FSP
		want bool
		by   string
	}{{q, true, "isomorphism"}, {marked(rng, q), false, "failures"}} {
		before := decisionCounts()
		got, err := c.Check(context.Background(), Query{P: p, Q: tc.q, Rel: Failure})
		if err != nil || got != tc.want {
			t.Fatalf("%s: %v, %v; want %v", tc.q.Name(), got, err, tc.want)
		}
		after := decisionCounts()
		for by, n := range after {
			want := int64(0)
			if by == tc.by {
				want = 1
			}
			if n-before[by] != want {
				t.Errorf("%s: %d %s decisions, want %d", tc.q.Name(), n-before[by], by, want)
			}
		}
	}
}

// fuzzProcess decodes one process of at most 8 states from data and
// returns the bytes it did not use; missing bytes read as zero. The
// header byte gives the state count (low 3 bits + 1), an optional root
// tau self-loop (bit 3) and the arc count (high 4 bits, doubled). One
// byte per state gives its extension (bit 0: x, bit 1: y), and one byte
// per arc its source (bits 0-2), target (bits 3-5) and action (bits 6-7:
// tau, a, b, tau), each state taken modulo the count. Bit 2 of the first
// state's byte declares 40 more actions named after the process, so two
// such processes declare more than failures.MaxAlphabet between them.
func fuzzProcess(name string, data []byte) (*fsp.FSP, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	h := next()
	n := int(h&7) + 1
	b := fsp.NewBuilder(name)
	b.AddStates(n)
	for s := 0; s < n; s++ {
		e := next()
		if e&1 != 0 {
			b.Extend(fsp.State(s), "x")
		}
		if e&2 != 0 {
			b.Extend(fsp.State(s), "y")
		}
		if s == 0 && e&4 != 0 {
			for i := 0; i < 40; i++ {
				b.Action(fmt.Sprintf("%s%d", name, i))
			}
		}
	}
	if h&8 != 0 {
		b.ArcName(0, fsp.TauName, 0)
	}
	for i := 0; i < int(h>>4)*2; i++ {
		a := next()
		act := [...]string{fsp.TauName, "a", "b", fsp.TauName}[a>>6]
		b.ArcName(fsp.State(int(a&7)%n), act, fsp.State(int(a>>3&7)%n))
	}
	return b.MustBuild(), data
}

// TestCrossPathPair: the nondeterministic counter spec of 50 stages
// passes its round cap, so its ≈-partition falls back to saturation,
// while the same spec padded with 5,000 unreachable states stays under
// its larger cap. The two reduced quotients come from different paths
// and must still be related under ≈ and ≈ᶜ.
func TestCrossPathPair(t *testing.T) {
	spec := gen.NondetCounterSpec(50)
	padded := rebuild(spec, spec.Name()+"+pad", identityPerm(spec.NumStates()), func(b *fsp.Builder) { b.AddStates(5000) })
	c := New()
	for _, rel := range []Relation{Weak, Congruence} {
		before := decisionCounts()
		got, err := c.Check(context.Background(), Query{P: spec, Q: padded, Rel: rel})
		if err != nil || !got {
			t.Fatalf("%v: %v, %v; want equivalent", rel, got, err)
		}
		after := decisionCounts()
		for by := range after {
			if after[by] != before[by] {
				t.Logf("%v: decided by %s", rel, by)
			}
		}
	}
}

// FuzzPairDecision decodes two small processes and requires the engine's
// Strong, Weak and Congruence verdicts, which the signature records
// mostly settle, to match the one-shot deciders; its Trace verdicts to
// match kequiv.Equivalent with k = 1; and its Failure queries, P against
// Q and P against itself, to fail exactly when failures.Equivalent on the
// originals fails, with its message, and otherwise to match its verdict.
func FuzzPairDecision(f *testing.F) {
	// The weakQuotient pair: 0 tau 2, 0 tau 3, 2 tau 0, ext(2) = {x},
	// against itself with a root tau self-loop.
	base := []byte{0x23, 0, 0, 1, 0, 0x10, 0x18, 0x02, 0x02}
	f.Add(append(append([]byte{}, base...), append([]byte{0x2b}, base[1:]...)...))
	// tau.a against a.
	f.Add([]byte{0x12, 0, 0, 0, 0x08, 0x51, 0x11, 0, 0, 0x48, 0x48})
	f.Add([]byte{0x74, 1, 2, 0, 3, 0, 0x41, 0x8a, 0x13, 0xd1, 0x62, 0x25, 0x9c, 0x07, 0x3b, 0xa4, 0x21, 0x5e, 0x80, 0xff})
	// A root on a tau cycle through two other classes, 0 → 1 → 2 → 0 with
	// x at 1 and y at 2, against its tau-prefixed copy; and the same root
	// with an in-class tau 0 → 3 → 1, against the first.
	f.Add([]byte{0x22, 0, 1, 2, 0x08, 0x11, 0x02, 0x08, 0x23, 0, 0, 1, 2, 0x08, 0x11, 0x1a, 0x0b})
	f.Add([]byte{0x33, 0, 1, 2, 0, 0x08, 0x11, 0x02, 0x18, 0x0b, 0x08, 0x22, 0, 1, 2, 0x08, 0x11, 0x02, 0x08})
	// Restricted tau.a against a: the ≈-records settle the failure pair.
	f.Add([]byte{0x12, 1, 1, 1, 0x08, 0x51, 0x11, 1, 1, 0x48, 0x48})
	// Restricted a.a + a.b + a.(a + b) against a.a + a.b: failure
	// equivalent but not ≈, so the records leave the pair to the walk.
	f.Add([]byte{0x44, 1, 1, 1, 1, 1, 0x48, 0x50, 0x58, 0x61, 0xa2, 0x63, 0xa3, 0xa3, 0x23, 1, 1, 1, 1, 0x48, 0x50, 0x59, 0x9a})
	// a with a third state, unreachable and not accepting, against the
	// restricted a: the two ≈-quotients are equal, and only the originals
	// show the error.
	f.Add([]byte{0x12, 1, 1, 0, 0x48, 0x48, 0x11, 1, 1, 0x48, 0x48})
	// Two restricted processes of 40 more actions each: each passes
	// failures.Validate, their joint alphabet does not.
	f.Add([]byte{0x11, 5, 1, 0x48, 0x48, 0x11, 5, 1, 0x48, 0x48})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, rest := fuzzProcess("p", data)
		q, _ := fuzzProcess("q", rest)
		ctx := context.Background()
		c := New()
		for _, rel := range []Relation{Strong, Weak, Congruence, Trace} {
			got, err := c.Check(ctx, Query{P: p, Q: q, Rel: rel})
			if err != nil {
				t.Fatal(err)
			}
			var want bool
			if rel == Trace {
				want, err = kequiv.Equivalent(ctx, p, q, 1)
			} else {
				want, err = oneShot(rel, p, q)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v: engine=%v direct=%v\np:\n%s\nq:\n%s", rel, got, want, fsp.FormatString(p), fsp.FormatString(q))
			}
		}
		for _, pq := range [][2]*fsp.FSP{{p, q}, {p, p}} {
			got, err := c.Check(ctx, Query{P: pq[0], Q: pq[1], Rel: Failure})
			want, _, wantErr := failures.Equivalent(ctx, pq[0], pq[1])
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("failure %s vs %s: engine error %v, direct error %v\np:\n%s\nq:\n%s", pq[0].Name(), pq[1].Name(), err, wantErr, fsp.FormatString(p), fsp.FormatString(q))
			}
			if err == nil && got != want {
				t.Fatalf("failure %s vs %s: engine=%v direct=%v\np:\n%s\nq:\n%s", pq[0].Name(), pq[1].Name(), got, want, fsp.FormatString(p), fsp.FormatString(q))
			}
		}
	})
}
