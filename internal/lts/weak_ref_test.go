package lts_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/lts"
)

// refFromWeak is the former FromWeak: the weak sigma-derivatives of every
// state for every observable action of the whole alphabet, each edge
// through a Builder, which sorts and dedups.
func refFromWeak(f *fsp.FSP, clo fsp.Closure) *lts.Index {
	b := lts.NewBuilder(f.NumStates(), f.Alphabet().NumObservable())
	for s := 0; s < f.NumStates(); s++ {
		for i, sigma := range f.Alphabet().Observable() {
			for _, p := range clo.Of(fsp.State(s)) {
				for _, q := range f.Dest(p, sigma) {
					for _, t := range clo.Of(q) {
						b.Add(int32(s), int32(i), int32(t))
					}
				}
			}
		}
	}
	return b.Build()
}

// weakCorpus returns random processes over small and wide alphabets at
// several tau densities, restricted ones, labelled rings with tau chords
// and the Fig. 2 gallery.
func weakCorpus(rng *rand.Rand) []*fsp.FSP {
	var out []*fsp.FSP
	for i := 0; i < 60; i++ {
		n := 1 + rng.Intn(40)
		tau := []float64{0, 0.2, 0.5, 0.9}[i%4]
		out = append(out,
			gen.Random(rng, n, rng.Intn(4*n+1), 1+rng.Intn(4), tau),
			gen.RandomRestricted(rng, n, rng.Intn(3*n+1), 2))
	}
	for _, n := range []int{1, 7, 70, 200} {
		b := fsp.NewBuilder(fmt.Sprintf("ring-%d", n))
		b.AddStates(n)
		for s := 0; s < n; s++ {
			b.ArcName(fsp.State(s), fmt.Sprintf("l%d", s%(n/2+1)), fsp.State((s+1)%n))
			if s%5 == 0 {
				b.ArcName(fsp.State(s), fsp.TauName, fsp.State((s*7+3)%n))
			}
		}
		out = append(out, b.MustBuild())
	}
	for _, g := range gen.Fig2Gallery() {
		out = append(out, g.P, g.Q)
	}
	return out
}

// TestFromWeakMatchesReference: the index read off the weak rows, visiting
// only the actions on each closure's arcs, equals the one built per
// action of the whole alphabet, array for array.
func TestFromWeakMatchesReference(t *testing.T) {
	for i, f := range weakCorpus(rand.New(rand.NewSource(22))) {
		clo := fsp.TauClosure(f)
		got, want := lts.FromWeak(f, clo), refFromWeak(f, clo)
		gs, gl, gt := got.Fwd()
		ws, wl, wt := want.Fwd()
		rs, rf, rl := got.Rev()
		xs, xf, xl := want.Rev()
		gc, gr, gn := got.Records()
		wc, wr, wn := want.Records()
		gsig, gns := got.Signatures()
		wsig, wns := want.Signatures()
		if got.N() != want.N() || got.NumLabels() != want.NumLabels() || got.NumEdges() != want.NumEdges() ||
			!slices.Equal(gs, ws) || !slices.Equal(gl, wl) || !slices.Equal(gt, wt) ||
			!slices.Equal(rs, xs) || !slices.Equal(rf, xf) || !slices.Equal(rl, xl) ||
			!slices.Equal(gc, wc) || !slices.Equal(gr, wr) || gn != wn ||
			!slices.Equal(gsig, wsig) || gns != wns || got.LabelNames() != nil {
			t.Fatalf("case %d (%s): FromWeak differs from the per-action reference", i, f.Name())
		}
	}
}
