package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"ccs"
	"ccs/internal/automata"
	"ccs/internal/core"
	"ccs/internal/expr"
	"ccs/internal/failures"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/kequiv"
	"ccs/internal/partition"
	"ccs/internal/reductions"
)

// timed measures one invocation.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// runE1 compares the naive (Lemma 3.2) and Paige-Tarjan (Theorem 3.1)
// strong-equivalence algorithms on random observable FSPs. The paper's
// claim: O(nm) vs O(m log n + n); the ratio should grow roughly linearly
// with n on fixed-density inputs.
func runE1(w io.Writer, seed int64, quick bool) error {
	sizes := []int{64, 128, 256, 512, 1024, 2048}
	if quick {
		sizes = []int{64, 128, 256}
	}
	fmt.Fprintf(w, "%8s %8s %12s %12s %8s %8s\n", "n", "m", "naive", "paige-tarjan", "ratio", "classes")
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(seed))
		f := gen.RandomRestricted(rng, n, 4*n, 2)
		var naive, pt time.Duration
		var blocksNaive, blocksPT int
		naive = timed(func() {
			blocksNaive = partition.NaiveIndex(core.IndexOf(f), core.ExtInitial(f)).NumBlocks()
		})
		pt = timed(func() {
			blocksPT = core.StrongPartition(f).NumBlocks()
		})
		if blocksNaive != blocksPT {
			return fmt.Errorf("algorithms disagree: %d vs %d blocks", blocksNaive, blocksPT)
		}
		ratio := float64(naive) / float64(pt)
		fmt.Fprintf(w, "%8d %8d %12s %12s %7.1fx %8d\n",
			n, f.NumTransitions(), naive.Round(time.Microsecond), pt.Round(time.Microsecond), ratio, blocksPT)
	}
	fmt.Fprintln(w, "expect: both polynomial; naive stays competitive on random inputs (few")
	fmt.Fprintln(w, "        rounds to the fixed point) — the Θ(nm) separation shows on the")
	fmt.Fprintln(w, "        adversarial family of E2")
	return nil
}

// runE2 exhibits the Θ(nm) lower bound of Lemma 3.2: on the splitter chain,
// the naive method needs n rounds, each a full O(n + m) pass.
func runE2(w io.Writer, seed int64, quick bool) error {
	sizes := []int{128, 256, 512, 1024}
	if quick {
		sizes = []int{64, 128}
	}
	fmt.Fprintf(w, "%8s %8s %12s %12s %10s\n", "n", "rounds", "naive", "paige-tarjan", "blocks")
	for _, n := range sizes {
		f := gen.SplitterChain(n)
		var rounds, blocks int
		naive := timed(func() {
			p, r, err := core.LimitedPartition(f, -1)
			if err == nil {
				rounds, blocks = r, p.NumBlocks()
			}
		})
		pt := timed(func() {
			core.StrongPartition(f)
		})
		fmt.Fprintf(w, "%8d %8d %12s %12s %10d\n",
			n, rounds, naive.Round(time.Microsecond), pt.Round(time.Microsecond), blocks)
	}
	fmt.Fprintln(w, "expect: rounds = n (every round splits one block; quadratic total naive work)")
	return nil
}

// runE3 times observational equivalence (saturation + partitioning) across
// sizes and tau densities — polynomial end to end (Theorem 4.1a).
func runE3(w io.Writer, seed int64, quick bool) error {
	sizes := []int{64, 128, 256, 512}
	if quick {
		sizes = []int{32, 64, 128}
	}
	fmt.Fprintf(w, "%8s %8s %8s %12s %12s %10s\n", "n", "m", "tau%", "saturate", "partition", "sat-arcs")
	for _, n := range sizes {
		for _, tau := range []float64{0.1, 0.5} {
			rng := rand.New(rand.NewSource(seed))
			f := gen.Random(rng, n, 4*n, 2, tau)
			var sat *fsp.FSP
			var err error
			satTime := timed(func() {
				sat, _, err = fsp.Saturate(f)
			})
			if err != nil {
				return err
			}
			partTime := timed(func() {
				core.StrongPartition(sat)
			})
			fmt.Fprintf(w, "%8d %8d %8.0f %12s %12s %10d\n",
				n, f.NumTransitions(), tau*100,
				satTime.Round(time.Microsecond), partTime.Round(time.Microsecond),
				sat.NumTransitions())
		}
	}
	fmt.Fprintln(w, "expect: smooth polynomial growth; saturation dominated by tau-closure density")
	return nil
}

// runE4 verifies Lemma 2.3.1 empirically: representative FSPs stay linear
// in states and at most quadratic in transitions, built in quadratic time.
func runE4(w io.Writer, seed int64, quick bool) error {
	sizes := []int{8, 16, 32, 64, 128}
	if quick {
		sizes = []int{8, 16, 32}
	}
	fmt.Fprintf(w, "%8s %8s %8s %12s %14s\n", "length", "states", "trans", "build", "trans/len^2")
	for _, ops := range sizes {
		rng := rand.New(rand.NewSource(seed))
		e := gen.RandomExpr(rng, ops, 2)
		var f *fsp.FSP
		var err error
		d := timed(func() {
			f, err = expr.Representative(e)
		})
		if err != nil {
			return err
		}
		n := e.Length()
		fmt.Fprintf(w, "%8d %8d %8d %12s %14.3f\n",
			n, f.NumStates(), f.NumTransitions(), d.Round(time.Microsecond),
			float64(f.NumTransitions())/float64(n*n))
	}
	fmt.Fprintln(w, "expect: states ≤ ~n, transitions/n² bounded (Lemma 2.3.1)")
	return nil
}

// runE5 prints the Fig. 2 gallery verdict table: the executable form of the
// figure separating the Table II equivalences on r.o.u. processes.
func runE5(w io.Writer, seed int64, quick bool) error {
	fmt.Fprintf(w, "%-18s %8s %8s %8s   %s\n", "pair", "≈_1", "≡", "≈", "description")
	for _, pair := range gen.Fig2Gallery() {
		trace, err := kequiv.Equivalent(context.Background(), pair.P, pair.Q, 1)
		if err != nil {
			return err
		}
		fail, _, err := failures.Equivalent(context.Background(), pair.P, pair.Q)
		if err != nil {
			return err
		}
		weak, err := core.WeakEquivalent(pair.P, pair.Q)
		if err != nil {
			return err
		}
		if trace != pair.Trace || fail != pair.Failure || weak != pair.Weak {
			return fmt.Errorf("gallery %q: verdicts drifted from expectations", pair.Name)
		}
		fmt.Fprintf(w, "%-18s %8v %8v %8v   %s\n", pair.Name, trace, fail, weak, pair.Description)
	}
	fmt.Fprintln(w, "expect: rows witnessing ≈ ⊊ ≡ ⊊ ≈_1 (Proposition 2.2.3)")
	return nil
}

// runE6 measures the ≈_k decider as the Theorem 4.1(b) ladder lifts a base
// pair to higher levels. The seeds are ≈_1-equivalent but not ≈_2; after i
// ladder applications the pair is ≈_{1+i} but not ≈_{2+i}, so the
// separation boundary climbs with the reduction exactly as the theorem
// requires, while instance sizes and decision cost grow.
func runE6(w io.Writer, seed int64, quick bool) error {
	levels := 5
	if quick {
		levels = 3
	}
	p := twoChainsSeed()
	q := mixedTreeSeed()
	fmt.Fprintf(w, "%8s %10s %10s %8s %8s %12s\n", "step", "states(p)", "states(q)", "≈_k", "≈_k+1", "decide(k+1)")
	for i := 0; i < levels; i++ {
		k := i + 1
		eqAtK, err := kequiv.Equivalent(context.Background(), p, q, k)
		if err != nil {
			return err
		}
		var eqAbove bool
		d := timed(func() {
			eqAbove, err = kequiv.Equivalent(context.Background(), p, q, k+1)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %10d %10d %8v %8v %12s\n",
			k, p.NumStates(), q.NumStates(), eqAtK, eqAbove, d.Round(time.Microsecond))
		if !eqAtK || eqAbove {
			return fmt.Errorf("ladder verdicts wrong at step %d: ≈_%d=%v ≈_%d=%v", i, k, eqAtK, k+1, eqAbove)
		}
		if i < levels-1 {
			p, q, err = reductions.Ladder(p, q)
			if err != nil {
				return err
			}
		}
	}
	fmt.Fprintln(w, "expect: every row ≈_k=true, ≈_k+1=false — the separation climbs with the ladder")
	return nil
}

// twoChainsSeed is a² + a³ and mixedTreeSeed is a(a+a²) + a: trace-equal
// processes separated at ≈_2.
func twoChainsSeed() *fsp.FSP {
	b := fsp.NewBuilder("a2+a3")
	b.AddStates(6)
	b.ArcName(0, "a", 1)
	b.ArcName(1, "a", 2)
	b.ArcName(0, "a", 3)
	b.ArcName(3, "a", 4)
	b.ArcName(4, "a", 5)
	for s := fsp.State(0); s < 6; s++ {
		b.Accept(s)
	}
	return b.MustBuild()
}

func mixedTreeSeed() *fsp.FSP {
	b := fsp.NewBuilder("a(a+a2)+a")
	b.AddStates(6)
	b.ArcName(0, "a", 1)
	b.ArcName(1, "a", 2)
	b.ArcName(1, "a", 3)
	b.ArcName(3, "a", 4)
	b.ArcName(0, "a", 5)
	for s := fsp.State(0); s < 6; s++ {
		b.Accept(s)
	}
	return b.MustBuild()
}

// runE7 contrasts failure-equivalence checking on nondeterministic inputs
// (exponential subset blowup, as Theorem 5.1 predicts) with deterministic
// controls of the same size (polynomial).
func runE7(w io.Writer, seed int64, quick bool) error {
	sizes := []int{6, 8, 10, 12, 14}
	if quick {
		sizes = []int{6, 8, 10}
	}
	fmt.Fprintf(w, "%8s %10s %14s %14s\n", "n", "n'", "nondet", "determ")
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(seed))
		// Nondeterministic: a Lemma 4.2 image compared against a renumbered
		// copy of itself. The languages are equal, so the decider cannot
		// exit early and must sweep the reachable subset-pair space, whose
		// size grows exponentially with n on these instances.
		m := gen.RandomTotal(rng, n, n)
		mp, err := reductions.Lemma42(m)
		if err != nil {
			return err
		}
		perm := make([]fsp.State, mp.NumStates())
		for i := range perm {
			perm[i] = fsp.State(mp.NumStates() - 1 - i)
		}
		mq, err := fsp.Renumber(mp, perm)
		if err != nil {
			return err
		}
		var eq bool
		nondet := timed(func() {
			eq, _, err = failures.Equivalent(context.Background(), mp, mq)
		})
		if err != nil {
			return err
		}
		if !eq {
			return fmt.Errorf("renumbered copy not failure-equivalent")
		}
		// Deterministic control of the same state count: self-comparison
		// explores only linearly many pairs.
		d1 := deterministicRestricted(rng, mp.NumStates())
		det := timed(func() {
			eq, _, err = failures.Equivalent(context.Background(), d1, d1)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %10d %14s %14s\n", n, mp.NumStates(), nondet.Round(time.Microsecond), det.Round(time.Microsecond))
	}
	fmt.Fprintln(w, "expect: the nondeterministic column grows much faster than the deterministic")
	fmt.Fprintln(w, "        control of equal state count (Theorem 5.1's exponential subset sweep)")
	return nil
}

// deterministicRestricted builds a total deterministic restricted process.
func deterministicRestricted(rng *rand.Rand, n int) *fsp.FSP {
	b := fsp.NewBuilder("det")
	b.AddStates(n)
	for s := 0; s < n; s++ {
		b.ArcName(fsp.State(s), "a", fsp.State(rng.Intn(n)))
		b.ArcName(fsp.State(s), "b", fsp.State(rng.Intn(n)))
		b.Accept(fsp.State(s))
	}
	return b.MustBuild()
}

// runE8 runs the Lemma 4.2 reduction end to end: universality of random
// total NFAs decided directly (subset construction) and through the
// restricted-observable image, verifying agreement and comparing cost.
func runE8(w io.Writer, seed int64, quick bool) error {
	trials := 40
	if quick {
		trials = 10
	}
	rng := rand.New(rand.NewSource(seed))
	var agree, universal int
	var direct, reduced time.Duration
	for i := 0; i < trials; i++ {
		m := gen.RandomTotal(rng, 3+rng.Intn(5), rng.Intn(5))
		nfa, err := expr.ToNFA(m)
		if err != nil {
			return err
		}
		var uniDirect bool
		direct += timed(func() {
			uniDirect, _ = automata.Universal(nfa)
		})
		mp, err := reductions.Lemma42(m)
		if err != nil {
			return err
		}
		var uniReduced bool
		reduced += timed(func() {
			nfaP, errI := expr.ToNFA(mp)
			if errI != nil {
				err = errI
				return
			}
			uniReduced, _ = automata.Universal(nfaP)
		})
		if err != nil {
			return err
		}
		if uniDirect == uniReduced {
			agree++
		}
		if uniDirect {
			universal++
		}
	}
	fmt.Fprintf(w, "trials=%d agree=%d universal=%d direct=%s via-reduction=%s\n",
		trials, agree, universal, direct.Round(time.Microsecond), reduced.Round(time.Microsecond))
	if agree != trials {
		return fmt.Errorf("reduction disagreed with direct universality")
	}
	fmt.Fprintln(w, "expect: agree=trials (the Fig. 4 reduction preserves universality)")
	return nil
}

// runE9 samples random restricted processes and tabulates how often each
// equivalence holds, verifying the inclusion chain ≈ ⊆ ≡ ⊆ ≈_1 on every
// sample (Proposition 2.2.3).
func runE9(w io.Writer, seed int64, quick bool) error {
	trials := 300
	if quick {
		trials = 60
	}
	rng := rand.New(rand.NewSource(seed))
	var cntTrace, cntFail, cntWeak, violations int
	for i := 0; i < trials; i++ {
		p := gen.RandomRestricted(rng, 2+rng.Intn(4), rng.Intn(8), 2)
		q := gen.RandomRestricted(rng, 2+rng.Intn(4), rng.Intn(8), 2)
		weak, err := core.WeakEquivalent(p, q)
		if err != nil {
			return err
		}
		fail, _, err := failures.Equivalent(context.Background(), p, q)
		if err != nil {
			return err
		}
		trace, err := kequiv.Equivalent(context.Background(), p, q, 1)
		if err != nil {
			return err
		}
		if weak {
			cntWeak++
		}
		if fail {
			cntFail++
		}
		if trace {
			cntTrace++
		}
		if (weak && !fail) || (fail && !trace) {
			violations++
		}
	}
	fmt.Fprintf(w, "trials=%d  ≈:%d  ≡:%d  ≈_1:%d  inclusion-violations=%d\n",
		trials, cntWeak, cntFail, cntTrace, violations)
	if violations != 0 {
		return fmt.Errorf("inclusion chain violated")
	}
	fmt.Fprintln(w, "expect: counts increase left to right; violations = 0")
	return nil
}

// runE10 verifies Proposition 2.2.4 on random deterministic processes: all
// notions collapse to ≈_1, and the classical DFA equivalence test agrees.
func runE10(w io.Writer, seed int64, quick bool) error {
	trials := 100
	if quick {
		trials = 25
	}
	rng := rand.New(rand.NewSource(seed))
	var eqCount int
	for i := 0; i < trials; i++ {
		p := gen.RandomDeterministic(rng, 2+rng.Intn(5), 2)
		q := gen.RandomDeterministic(rng, 2+rng.Intn(5), 2)
		strong, err := core.StrongEquivalent(p, q)
		if err != nil {
			return err
		}
		trace, err := kequiv.Equivalent(context.Background(), p, q, 1)
		if err != nil {
			return err
		}
		dp, err := toDFA(p)
		if err != nil {
			return err
		}
		dq, err := toDFA(q)
		if err != nil {
			return err
		}
		dfaEq, err := automata.EquivalentDFA(dp, dq)
		if err != nil {
			return err
		}
		if strong != trace || trace != dfaEq {
			return fmt.Errorf("deterministic collapse violated: ~=%v ≈_1=%v dfa=%v", strong, trace, dfaEq)
		}
		if strong {
			eqCount++
		}
	}
	fmt.Fprintf(w, "trials=%d equivalent=%d collapse-violations=0\n", trials, eqCount)
	fmt.Fprintln(w, "expect: ~, ≈_1 and UNION-FIND DFA equivalence agree on every pair")
	return nil
}

func toDFA(p *fsp.FSP) (*automata.DFA, error) {
	n, err := expr.ToNFA(p)
	if err != nil {
		return nil, err
	}
	return automata.Determinize(n), nil
}

// runE11 prints the model classifier's verdicts for one generated instance
// of each Table I class.
func runE11(w io.Writer, seed int64, quick bool) error {
	rng := rand.New(rand.NewSource(seed))
	cases := []struct {
		name string
		f    *fsp.FSP
	}{
		{"general (tau)", gen.Random(rng, 8, 20, 2, 0.4)},
		{"standard observable", gen.RandomTotal(rng, 8, 4)},
		{"deterministic", gen.RandomDeterministic(rng, 8, 2)},
		{"restricted observable", gen.RandomRestricted(rng, 8, 16, 2)},
		{"r.o.u. chain", gen.Chain(5)},
		{"finite tree", gen.RandomTree(rng, 9, 2)},
	}
	for _, tc := range cases {
		cls := fsp.Classify(tc.f)
		var names []string
		for _, m := range cls.Models() {
			names = append(names, m.String())
		}
		fmt.Fprintf(w, "%-22s -> %v\n", tc.name, names)
	}
	fmt.Fprintln(w, "expect: each generated instance reports its class and all supersets (Fig. 1a)")
	return nil
}

// runE12 samples distributivity instances r(s+t) vs rs+rt: language
// equivalence always holds, CCS equivalence only when branching collapses.
func runE12(w io.Writer, seed int64, quick bool) error {
	trials := 60
	if quick {
		trials = 20
	}
	rng := rand.New(rand.NewSource(seed))
	var langEq, ccsEq int
	for i := 0; i < trials; i++ {
		r := gen.RandomExpr(rng, 1+rng.Intn(2), 2)
		s := gen.RandomExpr(rng, rng.Intn(2), 2)
		t := gen.RandomExpr(rng, rng.Intn(2), 2)
		left := expr.Concat{L: r, R: expr.Union{L: s, R: t}}
		right := expr.Union{L: expr.Concat{L: r, R: s}, R: expr.Concat{L: r, R: t}}
		le, err := expr.LanguageEquivalent(left, right)
		if err != nil {
			return err
		}
		ce, err := expr.CCSEquivalent(left, right)
		if err != nil {
			return err
		}
		if le {
			langEq++
		}
		if ce {
			ccsEq++
		}
		if ce && !le {
			return fmt.Errorf("CCS-equivalent but not language-equivalent: %v vs %v", left, right)
		}
	}
	fmt.Fprintf(w, "trials=%d language-equal=%d ccs-equal=%d\n", trials, langEq, ccsEq)
	fmt.Fprintln(w, "expect: language-equal = trials; ccs-equal strictly smaller (Section 2.3 item 3)")
	return nil
}

// runE13 compares the linear-time trivial-NFA test (Section 4 closing
// remark) against the general ≈_2 decider on growing total cycles.
func runE13(w io.Writer, seed int64, quick bool) error {
	sizes := []int{8, 16, 32, 64}
	if quick {
		sizes = []int{8, 16}
	}
	trivial := reductions.TrivialNFA("a")
	fmt.Fprintf(w, "%8s %14s %14s %8s\n", "n", "linear-test", "general-≈_2", "verdict")
	for _, n := range sizes {
		cyc := gen.Cycle(n)
		var fast, slow time.Duration
		var okFast, okSlow bool
		var err error
		fast = timed(func() {
			okFast, err = kequiv.EquivalentToTrivial(cyc, cyc.Start())
		})
		if err != nil {
			return err
		}
		slow = timed(func() {
			okSlow, err = kequiv.Equivalent(context.Background(), cyc, trivial, 2)
		})
		if err != nil {
			return err
		}
		if okFast != okSlow {
			return fmt.Errorf("trivial-NFA shortcut disagrees with ≈_2 decider")
		}
		fmt.Fprintf(w, "%8d %14s %14s %8v\n", n, fast.Round(time.Microsecond), slow.Round(time.Microsecond), okFast)
	}
	// Chaos: the Fig. 5b process is ≈_1 but not ≈_2 the trivial process.
	chaos := reductions.Chaos()
	k1, err := kequiv.Equivalent(context.Background(), chaos, reductions.TrivialNFA("a"), 1)
	if err != nil {
		return err
	}
	k2, err := kequiv.Equivalent(context.Background(), chaos, reductions.TrivialNFA("a"), 2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "chaos vs q*: ≈_1=%v ≈_2=%v (Fig. 5b separates the levels)\n", k1, k2)
	fmt.Fprintln(w, "expect: linear test matches the general decider and scales; chaos: ≈_1 true, ≈_2 false")
	return nil
}

// runE14 exhibits the Section 6 observation that motivates the open
// problem: extended star expressions (here with the intersection operator,
// semantics = direct product of representatives) are succinct — nesting
// intersections of coprime cycles grows the expression additively but the
// representative FSP multiplicatively (the lcm), which is why the
// equivalence problem "perhaps becomes hard" for the extended calculus.
func runE14(w io.Writer, seed int64, quick bool) error {
	exprs := []string{
		"(aa)*",
		"(aa)*&(aaa)*",
		"(aa)*&(aaa)*&(aaaaa)*",
		"(aa)*&(aaa)*&(aaaaa)*&(aaaaaaa)*",
	}
	if quick {
		exprs = exprs[:3]
	}
	fmt.Fprintf(w, "%-40s %8s %8s %8s %12s\n", "expression", "length", "states", "trans", "build")
	for _, src := range exprs {
		e, err := expr.Parse(src)
		if err != nil {
			return err
		}
		var f *fsp.FSP
		d := timed(func() {
			f, err = expr.Representative(e)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-40s %8d %8d %8d %12s\n",
			src, e.Length(), f.NumStates(), f.NumTransitions(), d.Round(time.Microsecond))
	}
	// Equivalence still works on the blown-up representatives.
	eq, err := expr.CCSEquivalent(expr.MustParse("(aa)*&(aaa)*"), expr.MustParse("(aaaaaa)*"))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "(aa)*&(aaa)* ~ (a^6)*: %v (CCS equivalence of the representatives)\n", eq)
	fmt.Fprintln(w, "expect: states grow multiplicatively (lcm of cycles) while length grows additively")
	return nil
}

// runE15 measures the batch equivalence engine: a 100-pair weak-equivalence
// workload over a pool of shared processes, checked (a) by the plain
// one-shot facade loop, (b) by Checker.DoAll with one worker (cache only),
// and (c) by Checker.DoAll with four workers (cache + fan-out). The
// requests carry the processes as inline texts, which the batch loader
// parses once per distinct text. The cache amortizes saturation and
// quotienting per distinct process, and the pool parallelizes the
// residual per-pair work, so (c) should beat (a) by well over the worker
// count and (b) by roughly the worker count.
func runE15(w io.Writer, seed int64, quick bool) error {
	nProcs, nPairs, size := 16, 100, 192
	if quick {
		nProcs, nPairs, size = 8, 30, 64
	}
	rng := rand.New(rand.NewSource(seed))
	procs := make([]*fsp.FSP, nProcs)
	texts := make([]string, nProcs)
	for i := range procs {
		procs[i] = gen.Random(rng, size, 4*size, 2, 0.3)
		texts[i] = fsp.FormatString(procs[i])
	}
	type pair struct{ p, q int }
	pairs := make([]pair, nPairs)
	reqs := make([]ccs.CheckRequest, nPairs)
	for i := range pairs {
		pairs[i] = pair{rng.Intn(nProcs), rng.Intn(nProcs)}
		reqs[i] = ccs.CheckRequest{Relation: "weak", P: texts[pairs[i].p], Q: texts[pairs[i].q]}
	}
	ctx := context.Background()

	var loopEq int
	var loopErr error
	oneShot := timed(func() {
		for _, pq := range pairs {
			eq, err := core.WeakEquivalent(procs[pq.p], procs[pq.q])
			if err != nil {
				loopErr = err
				return
			}
			if eq {
				loopEq++
			}
		}
	})
	if loopErr != nil {
		return loopErr
	}

	var seq, pooled []ccs.Report
	seqTime := timed(func() {
		seq = ccs.NewChecker().DoAll(ctx, reqs, 1, nil)
	})
	poolTime := timed(func() {
		pooled = ccs.NewChecker().DoAll(ctx, reqs, 4, nil)
	})

	seqEq, poolEq := 0, 0
	for i := range reqs {
		if seq[i].Error != nil {
			return seq[i].Error
		}
		if pooled[i].Error != nil {
			return pooled[i].Error
		}
		if seq[i].Equivalent != pooled[i].Equivalent {
			return fmt.Errorf("pair %d: sequential and pooled verdicts disagree", i)
		}
		if seq[i].Equivalent {
			seqEq++
		}
		if pooled[i].Equivalent {
			poolEq++
		}
	}
	if seqEq != loopEq {
		return fmt.Errorf("engine found %d equivalent pairs, one-shot loop %d", seqEq, loopEq)
	}
	fmt.Fprintf(w, "%-28s %12s %10s\n", "mode", "time", "equal")
	fmt.Fprintf(w, "%-28s %12s %10d\n", "one-shot loop", oneShot.Round(time.Microsecond), loopEq)
	fmt.Fprintf(w, "%-28s %12s %10d\n", "engine, 1 worker", seqTime.Round(time.Microsecond), seqEq)
	fmt.Fprintf(w, "%-28s %12s %10d\n", "engine, 4 workers", poolTime.Round(time.Microsecond), poolEq)
	fmt.Fprintf(w, "pairs=%d procs=%d n=%d gomaxprocs=%d  cache-speedup=%.1fx  pool-speedup=%.1fx  batch-speedup=%.1fx\n",
		nPairs, nProcs, size, runtime.GOMAXPROCS(0),
		float64(oneShot)/float64(seqTime),
		float64(seqTime)/float64(poolTime),
		float64(oneShot)/float64(poolTime))
	fmt.Fprintln(w, "expect: batch-speedup >= 1.5x from caching alone; the worker pool multiplies")
	fmt.Fprintln(w, "        it by up to min(4, gomaxprocs) on multi-core hardware")
	return nil
}
