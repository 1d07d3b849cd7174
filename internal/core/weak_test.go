package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ccs/internal/compose"
	"ccs/internal/core"
	"ccs/internal/engine"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/partition"
	"ccs/internal/reductions"
)

// The saturate-and-partition references: the Theorem 4.1(a) route that
// the ≈-kernel replaced, run on a built P-hat.

func saturated(t testing.TB, f *fsp.FSP) *fsp.FSP {
	t.Helper()
	sat, _, err := fsp.Saturate(f)
	if err != nil {
		t.Fatal(err)
	}
	return sat
}

// refWeakEquivalent is the former WeakEquivalent: each side saturated, one
// strong-equivalence solve on the union of the saturations.
func refWeakEquivalent(t testing.TB, f, g *fsp.FSP) bool {
	sf, sg := saturated(t, f), saturated(t, g)
	eq, err := core.StrongEquivalent(sf, sg)
	if err != nil {
		t.Fatal(err)
	}
	return eq
}

// refObservationCongruent is the former closure-based ≈ᶜ decider: ≈ from
// Paige–Tarjan on P-hat of the union, then the root condition read off
// the tau-closure.
func refObservationCongruent(t testing.TB, f, g *fsp.FSP) bool {
	u, off, err := fsp.DisjointUnion(f, g)
	if err != nil {
		t.Fatal(err)
	}
	p, q := f.Start(), off+g.Start()
	if u.Ext(p) != u.Ext(q) {
		return false
	}
	clo := fsp.TauClosure(u)
	sat := saturated(t, u)
	weak := core.StrongPartition(sat)
	match := func(p, q fsp.State) bool {
		for _, a := range u.Arcs(p) {
			var cands []fsp.State
			if a.Act == fsp.Tau {
				for _, mid := range clo.Of(q) {
					for _, s := range u.Dest(mid, fsp.Tau) {
						cands = append(cands, clo.Of(s)...)
					}
				}
			} else {
				cands = sat.Dest(q, a.Act)
			}
			ok := false
			for _, c := range cands {
				ok = ok || weak.Same(int32(a.To), int32(c))
			}
			if !ok {
				return false
			}
		}
		return true
	}
	return match(p, q) && match(q, p)
}

// checkAgainstSaturation compares every kernel entry point on f with the
// references: WeakPartition with Paige–Tarjan on P-hat, LimitedPartition
// with k naive rounds for every k up to the fixpoint (same partition, same
// changed-round count), and both reduced quotients with the dense
// saturate-and-partition quotient (checkReduced).
func checkAgainstSaturation(t *testing.T, name string, f *fsp.FSP) {
	t.Helper()
	sat, eps, err := fsp.Saturate(f)
	if err != nil {
		t.Fatal(err)
	}
	pt := core.StrongPartition(sat)
	ladder := partition.RefineSequenceIndex(core.IndexOf(sat), core.ExtInitial(sat))
	fix := len(ladder) - 1
	got, err := core.WeakPartition(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !got.Equal(ladder[fix]) || !got.Equal(pt) {
		t.Fatalf("%s: WeakPartition differs from saturate-and-partition", name)
	}
	for k := -1; k <= fix+1; k++ {
		p, rounds, err := core.LimitedPartition(f, k)
		if err != nil {
			t.Fatalf("%s: k=%d: %v", name, k, err)
		}
		want := fix
		if k >= 0 && k < fix {
			want = k
		}
		if rounds != want || !p.Equal(ladder[want]) {
			t.Fatalf("%s: LimitedPartition(k=%d) = %d blocks after %d rounds, want %d blocks after %d",
				name, k, p.NumBlocks(), rounds, ladder[want].NumBlocks(), want)
		}
	}
	for _, tc := range []struct {
		suffix  string
		rootFix bool
		fn      func(*fsp.FSP) (*fsp.FSP, []fsp.State, error)
	}{
		{"/≈", false, core.QuotientWeak},
		{"/≈ᶜ", true, core.QuotientCongruence},
	} {
		q, _, err := tc.fn(f)
		if err != nil {
			t.Fatalf("%s%s: %v", name, tc.suffix, err)
		}
		checkReduced(t, name+tc.suffix, q, builderSortedQuotientOf(f, sat, eps, pt, tc.suffix, tc.rootFix))
	}
}

// poolShaped draws processes like the benchmark's pair pools: 60–240
// states, 3n arcs, 4 actions and 20–50% tau, and the 10–30-state shape
// of its trace pairs.
func poolShaped(rng *rand.Rand, count int) []*fsp.FSP {
	var out []*fsp.FSP
	for i := 0; i < count; i++ {
		frac := float64((i*37)%count) / float64(count)
		n := 60 + int(frac*180)
		if i%5 == 0 {
			n = 10 + int(frac*20)
		}
		out = append(out, gen.Random(rng, n, 3*n, 4, 0.2+0.3*frac))
	}
	return out
}

// galleryProcesses returns the Fig. 2 pairs and every spec and component
// of the network and protocol galleries.
func galleryProcesses() []*fsp.FSP {
	var out []*fsp.FSP
	for _, g := range gen.Fig2Gallery() {
		out = append(out, g.P, g.Q)
	}
	for _, g := range append(gen.NetworkGallery(), gen.ProtocolGallery()...) {
		out = append(out, g.Spec)
		for _, c := range g.Net.Components {
			out = append(out, c.P)
		}
	}
	return out
}

// reductionImages returns the Lemma 4.2, Theorem 4.1(b) ladder and
// Theorem 5.1 images of small random processes.
func reductionImages(t testing.TB, rng *rand.Rand) []*fsp.FSP {
	var out []*fsp.FSP
	for i := 0; i < 12; i++ {
		m, err := reductions.Lemma42(gen.RandomTotal(rng, 2+rng.Intn(4), rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		p := gen.RandomRestricted(rng, 2+rng.Intn(4), rng.Intn(8), 2)
		q := gen.RandomRestricted(rng, 2+rng.Intn(4), rng.Intn(8), 2)
		pp, qp, err := reductions.Ladder(p, q)
		if err != nil {
			t.Fatal(err)
		}
		d, err := reductions.Theorem51(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m, pp, qp, d)
	}
	return out
}

// mtcProduct is minimize-then-compose's product: the network with every
// component replaced by its ≈ᶜ-quotient, composed.
func mtcProduct(t testing.TB, net *compose.Network) *fsp.FSP {
	t.Helper()
	p, err := engine.New().ComposeNetwork(context.Background(), net, engine.Weak)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWeakKernelMatchesSaturation is the differential test of the
// ≈-kernel against saturate-and-partition, over pool-shaped random
// processes, the restricted and tau-rich corpora, the galleries, the
// reductions' images and minimize-then-compose products.
func TestWeakKernelMatchesSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	corpus := poolShaped(rng, 25)
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(30)
		corpus = append(corpus,
			gen.RandomRestricted(rng, n, rng.Intn(3*n+1), 2),
			gen.Random(rng, n, rng.Intn(4*n+1), 1+rng.Intn(3), 0.6+0.4*rng.Float64()))
	}
	corpus = append(corpus, weakClosedCorpus(rng, 40)...)
	corpus = append(corpus, galleryProcesses()...)
	corpus = append(corpus, reductionImages(t, rng)...)
	corpus = append(corpus, gen.Chain(40), gen.Cycle(12), gen.SplitterChain(6), gen.NondetCounterSpec(9))
	nets := []*compose.Network{gen.RelayNetwork(8, 2), gen.LossyRelayNetwork(8, 2), gen.TokenRing(6), gen.BuggyTokenRing(6)}
	if !testing.Short() {
		nets = append(nets, gen.RelayNetwork(10, 2), gen.TokenRing(8), gen.BuggyTokenRing(8), gen.ByzantineQuorumSwarm(12, 4, 4, 6))
	}
	for _, net := range nets {
		corpus = append(corpus, mtcProduct(t, net))
	}
	for i, f := range corpus {
		checkAgainstSaturation(t, fmt.Sprintf("case %d (%s)", i, f.Name()), f)
	}

	// Verdicts: each process against a fluffed copy, a tau-prefixed copy
	// and its neighbour in the corpus.
	for i, f := range corpus[:len(corpus)-len(nets)] {
		for _, g := range []*fsp.FSP{fluff(rng, f), tauPrefix(f), corpus[(i+1)%len(corpus)]} {
			weak, err := core.WeakEquivalent(f, g)
			if err != nil {
				t.Fatal(err)
			}
			if want := refWeakEquivalent(t, f, g); weak != want {
				t.Fatalf("case %d: WeakEquivalent = %v, reference %v", i, weak, want)
			}
			cong, err := core.ObservationCongruent(f, g)
			if err != nil {
				t.Fatal(err)
			}
			if want := refObservationCongruent(t, f, g); cong != want {
				t.Fatalf("case %d: ObservationCongruent = %v, reference %v", i, cong, want)
			}
		}
	}
}

// TestWeakPathsOnBenchmarkShapes: every benchmark-shaped input is derived
// by the rounds or, tau-free, by Paige–Tarjan, never by the saturation
// fallback. Past the round cap (a nondeterministic counter spec of 200
// stages) and past the word budget (a 20,000-state tau-sparse process)
// the derivation falls back once and keeps saturate-and-partition's
// partition.
func TestWeakPathsOnBenchmarkShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1983))
	var inputs []*fsp.FSP
	inputs = append(inputs, poolShaped(rng, 200)...)
	inputs = append(inputs, galleryProcesses()...)
	pools := []struct {
		net  *compose.Network
		spec *fsp.FSP
	}{
		{gen.RelayNetwork(8, 2), gen.CounterSpec(8)},
		{gen.RelayNetwork(9, 2), gen.CounterSpec(9)},
		{gen.RelayNetwork(10, 2), gen.CounterSpec(10)},
		{gen.RelayNetwork(11, 2), gen.CounterSpec(11)},
		{gen.RelayNetwork(11, 2), gen.NondetCounterSpec(11)},
		{gen.RelayNetwork(6, 2), gen.CounterSpec(6)},
		{gen.LossyRelayNetwork(8, 2), gen.CounterSpec(8)},
		{gen.LossyRelayNetwork(11, 2), gen.CounterSpec(11)},
		{gen.TokenRing(8), gen.TokenRingSpec()},
		{gen.BuggyTokenRing(8), gen.TokenRingSpec()},
		{gen.ByzantineQuorumSwarm(12, 4, 4, 6), gen.DecideSpec()},
	}
	for _, p := range pools {
		inputs = append(inputs, p.spec)
		for _, c := range p.net.Components {
			inputs = append(inputs, c.P)
		}
	}
	nets := []*compose.Network{gen.TokenRing(8), gen.BuggyTokenRing(8), gen.ByzantineQuorumSwarm(12, 4, 4, 6)}
	for n := 8; n <= 12; n++ {
		nets = append(nets, gen.RelayNetwork(n, 2), gen.LossyRelayNetwork(n, 2))
	}
	for _, net := range nets {
		inputs = append(inputs, mtcProduct(t, net))
	}

	_, _, sat0 := core.WeakPaths()
	for _, f := range inputs {
		if _, _, err := core.QuotientCongruence(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, sat := core.WeakPaths(); sat != sat0 {
		t.Fatalf("%d of %d benchmark-shaped derivations fell back to saturation", sat-sat0, len(inputs))
	}

	for _, f := range []*fsp.FSP{gen.NondetCounterSpec(200), gen.Random(rand.New(rand.NewSource(5)), 20000, 60000, 8, 0.05)} {
		rounds0, strong0, sat0 := core.WeakPaths()
		got, err := core.WeakPartition(f)
		if err != nil {
			t.Fatal(err)
		}
		if rounds, strong, sat := core.WeakPaths(); sat != sat0+1 || rounds != rounds0 || strong != strong0 {
			t.Fatalf("%s: paths moved by rounds %d, strong %d, saturation %d; want one saturation",
				f.Name(), rounds-rounds0, strong-strong0, sat-sat0)
		}
		if !got.Equal(core.StrongPartition(saturated(t, f))) {
			t.Fatalf("%s: fallback partition differs from saturate-and-partition's", f.Name())
		}
	}
}

// wideAlphabet is a ring of n states whose arcs carry n distinct labels,
// with a single tau arc: tau-sparse, with an alphabet as large as the
// process, so one-word block bitsets per action would take n² words.
func wideAlphabet(n int) *fsp.FSP {
	b := fsp.NewBuilder(fmt.Sprintf("wide-alphabet-%d", n))
	b.AddStates(n)
	for s := 0; s < n; s++ {
		b.ArcName(fsp.State(s), fmt.Sprintf("l%d", s), fsp.State((s+1)%n))
	}
	b.ArcName(0, fsp.TauName, 1)
	return b.MustBuild()
}

// TestWeakFallbackAllocation: on large processes whose rounds would need
// more words than the budget — a tau-sparse random process, whose block
// bitsets grow with the blocks, and a wide-alphabet ring of 50,000 states,
// whose one-word bitsets grow with the alphabet — the rounds give up
// before they cost much, so the ≈-partition, fallback included, allocates
// at most 1.5x what saturate-and-partition alone allocates, and the
// reduced ≈ᶜ-quotient at most 1.5x what the dense one of the same
// partition allocates. Saturation visits only the actions on each
// closure's arcs, so the ring saturates in time linear in its size.
func TestWeakFallbackAllocation(t *testing.T) {
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, f := range []*fsp.FSP{gen.Random(rand.New(rand.NewSource(5)), 20000, 60000, 8, 0.05), wideAlphabet(50000)} {
		for _, tc := range []struct {
			name      string
			ref, code func() error
		}{
			{
				"partition",
				func() error { core.StrongPartition(saturated(t, f)); return nil },
				func() error { _, err := core.WeakPartition(f); return err },
			},
			{
				"congruence quotient",
				func() error { _, err := core.DenseQuotientCongruence(f); return err },
				func() error { _, _, err := core.QuotientCongruence(f); return err },
			},
		} {
			var err error
			ref := allocated(func() { err = tc.ref() })
			if err != nil {
				t.Fatal(err)
			}
			_, _, sat0 := core.WeakPaths()
			got := allocated(func() { err = tc.code() })
			if err != nil {
				t.Fatal(err)
			}
			if _, _, sat := core.WeakPaths(); sat != sat0+1 {
				t.Fatalf("%s %s: %d saturations, want 1", f.Name(), tc.name, sat-sat0)
			}
			t.Logf("%s %s: %.1f MB against the reference's %.1f MB", f.Name(), tc.name, float64(got)/1e6, float64(ref)/1e6)
			if float64(got) > 1.5*float64(ref) {
				t.Fatalf("%s %s: allocated %d bytes, more than 1.5x the reference's %d", f.Name(), tc.name, got, ref)
			}
		}
	}
}

// TestWeakRoundsAllocation: on pool-shaped processes the rounds reuse
// their component sets and their one row table from round to round,
// regrowing them only when the blocks widen, so a reduced ≈ᶜ-quotient
// allocates at most roundsBytesPerElement bytes per state and arc of its
// input (about 183 on amd64). Rebuilding the sets and the table at every
// width change took about 214.
func TestWeakRoundsAllocation(t *testing.T) {
	const roundsBytesPerElement = 200
	inputs := poolShaped(rand.New(rand.NewSource(1983)), 200)
	var size uint64
	for _, f := range inputs {
		size += uint64(f.NumStates() + f.NumTransitions())
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, f := range inputs {
		if _, _, err := core.QuotientCongruence(f); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(size)
	t.Logf("%.1f bytes per state and arc over %d inputs", per, len(inputs))
	if per > roundsBytesPerElement {
		t.Fatalf("QuotientCongruence allocated %.1f bytes per state and arc, above %d", per, roundsBytesPerElement)
	}
}

// fuzzProcess reads a process of at most 8 states over {a, b} with tau
// arcs and the variables x and y from data: the first byte picks the
// state count, each further triple (s, op, t) adds the arc s a t, s b t
// or s tau t, or (op 3) puts x or y, by t's parity, in s's extension.
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
		s, t := fsp.State(int(data[0])%n), int(data[2])
		switch op := data[1] % 4; op {
		case 3:
			b.Extend(s, []string{"x", "y"}[t%2])
		default:
			b.ArcName(s, []string{"a", "b", fsp.TauName}[op], fsp.State(t%n))
		}
	}
	return b.MustBuild()
}

// FuzzWeakRounds checks the ≈-kernel against saturate-and-partition on
// two fuzzed processes: on their disjoint union, ≃_k for every k ≤ 4
// equals k naive rounds on P-hat with the same changed-round count, and
// ≈ equals Paige–Tarjan on P-hat; saturating each process's reduced ≈-
// and ≈ᶜ-quotients gives saturate-and-partition's dense quotients, arc
// for arc (checkReduced).
func FuzzWeakRounds(f *testing.F) {
	f.Add([]byte{2, 0, 2, 1, 1, 0, 2}, []byte{3, 0, 0, 1, 0, 2, 2, 1, 0, 3, 2, 3, 1})
	f.Add([]byte{3, 0, 2, 1, 1, 2, 2, 2, 1, 0, 0, 3, 0}, []byte{3, 0, 0, 1, 1, 2, 2, 2, 2, 0})
	f.Add([]byte{7, 0, 2, 1, 1, 2, 2, 2, 2, 3, 3, 2, 4, 4, 2, 5, 5, 0, 6}, []byte{1, 0, 2, 0, 0, 1, 0, 1, 3, 1})
	f.Fuzz(func(t *testing.T, pb, qb []byte) {
		p, q := fuzzProcess("p", pb), fuzzProcess("q", qb)
		u, _, err := fsp.DisjointUnion(p, q)
		if err != nil {
			t.Fatal(err)
		}
		sat := saturated(t, u)
		idx, initial := core.IndexOf(sat), core.ExtInitial(sat)
		for k := 0; k <= 4; k++ {
			got, rounds, err := core.LimitedPartition(u, k)
			if err != nil {
				t.Fatal(err)
			}
			want, wantRounds := partition.RefineStepsIndex(idx, initial, k)
			if rounds != wantRounds || !got.Equal(want) {
				t.Fatalf("≃_%d: %d blocks after %d rounds, want %d blocks after %d",
					k, got.NumBlocks(), rounds, want.NumBlocks(), wantRounds)
			}
		}
		weak, err := core.WeakPartition(u)
		if err != nil {
			t.Fatal(err)
		}
		if !weak.Equal(partition.PaigeTarjanIndex(idx, initial)) {
			t.Fatal("≈ differs from Paige–Tarjan on P-hat")
		}
		for _, f := range []*fsp.FSP{p, q} {
			for _, tc := range []struct {
				suffix  string
				rootFix bool
				fn      func(*fsp.FSP) (*fsp.FSP, []fsp.State, error)
			}{
				{"/≈", false, core.QuotientWeak},
				{"/≈ᶜ", true, core.QuotientCongruence},
			} {
				got, _, err := tc.fn(f)
				if err != nil {
					t.Fatal(err)
				}
				checkReduced(t, f.Name()+tc.suffix, got, builderSortedQuotient(t, f, tc.suffix, tc.rootFix))
			}
		}
	})
}
