package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"ccs/internal/fsp"
	"ccs/internal/partition"
)

// QuotientStrong returns the quotient of f modulo strong equivalence: one
// state per equivalence class, with an arc (B, a, C) whenever some (hence,
// by bisimilarity, every) member of B has an a-arc into C. The quotient is
// the state-minimal process strongly equivalent to f, the CCS analogue of
// DFA minimization. The returned map sends each original state to its class.
func QuotientStrong(f *fsp.FSP) (*fsp.FSP, []fsp.State, error) {
	p := StrongPartition(f)
	q, m, err := quotient(f, p)
	if err != nil {
		return nil, nil, fmt.Errorf("strong quotient: %w", err)
	}
	return q, m, nil
}

// quotient collapses f along an equivalence partition that is a strong
// bisimulation. Every class member has the same arcs up to classes, so a
// single representative per class suffices.
func quotient(f *fsp.FSP, p *partition.Partition) (*fsp.FSP, []fsp.State, error) {
	b := fsp.NewBuilderWith(f.Name()+"/~", f.Alphabet().Clone(), f.Vars().Clone())
	b.AddStates(p.NumBlocks())
	b.SetStart(fsp.State(p.Block(int32(f.Start()))))

	reps := make([]fsp.State, p.NumBlocks())
	for i := range reps {
		reps[i] = fsp.None
	}
	mapping := make([]fsp.State, f.NumStates())
	for s := 0; s < f.NumStates(); s++ {
		blk := p.Block(int32(s))
		mapping[s] = fsp.State(blk)
		if reps[blk] == fsp.None {
			reps[blk] = fsp.State(s)
		}
	}
	for blk, rep := range reps {
		for _, a := range f.Arcs(rep) {
			b.Arc(fsp.State(blk), a.Act, fsp.State(p.Block(int32(a.To))))
		}
		for _, id := range f.Ext(rep).IDs() {
			b.Extend(fsp.State(blk), f.Vars().Name(id))
		}
	}
	q, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return q, mapping, nil
}

// QuotientWeak returns a process observationally equivalent to f with one
// state per ≈-class: the reduced ≈-quotient (see weakQuotient). It keeps
// only the arcs of the dense, weak-closed quotient that its weak closure
// cannot rebuild, so saturating it gives the dense quotient back, and it
// is a function of the dense quotient: two processes are ≈ iff the
// reachable parts of their reduced quotients are isomorphic.
func QuotientWeak(f *fsp.FSP) (*fsp.FSP, []fsp.State, error) {
	q, m, err := weakQuotient(f, "/≈", false)
	if err != nil {
		return nil, nil, fmt.Errorf("weak quotient: %w", err)
	}
	return q, m, nil
}

// QuotientCongruence returns a process observation-congruent (≈ᶜ) to f:
// the reduced ≈-quotient, except possibly at the root. Merging the start
// state into its ≈-class can erase an initial tau (the tau·a ≈ a but
// tau·a ≉ᶜ a separation), so when the start has a direct tau move into
// its own class the quotient root gets a tau self-loop, which restores the
// strengthened root condition without adding a state. The result
// therefore has exactly one state per ≈-class — it is ≈ᶜ-minimal: no two
// distinct output states are related by ≈ᶜ (they are not even ≈, being
// distinct classes, and ≈ᶜ ⊆ ≈).
//
// ≈ᶜ is a congruence for every CCS operator, so the output can replace f
// inside any compose.Network (composition, restriction, relabeling) for
// any equivalence coarser than ≈ᶜ — the soundness fact behind the
// engine's minimize-then-compose pipeline.
func QuotientCongruence(f *fsp.FSP) (*fsp.FSP, []fsp.State, error) {
	q, m, err := weakQuotient(f, "/≈ᶜ", true)
	if err != nil {
		return nil, nil, fmt.Errorf("congruence quotient: %w", err)
	}
	return q, m, nil
}

// weakQuotient collapses f along the ≈-partition of its states and emits
// the reduced quotient. For classes C and D, let E(C) be the classes C
// reaches by τ* and S_σ(C) those it reaches by τ*στ* (the dense rows);
// SCC(C) = {D ∈ E(C) : C ∈ E(D)}, T(C) = E(C) \ SCC(C) and
// R(C) = T(C) \ ⋃_{D∈T(C)} T(D), the class-level tau-SCCs right below C.
// C keeps its tau arcs to SCC(C) \ {C} and to R(C), which regenerate E(C)
// by τ*, and its σ-arcs to S_σ(C) \ ⋃_{D∈R(C)} S_σ(D) \ ⋃_{D∈S_σ(C)} R(D),
// which then regenerate S_σ(C) by τ*στ*. Every tau arc inside a
// class-level tau-SCC is kept, so the root lies on a tau cycle in the
// reduced quotient iff it does in the dense one.
//
// With rootFix set the output additionally preserves observation
// congruence:
//
//   - If the start state p0 has no direct tau into its own ≈-class, the
//     plain quotient start Q0 already satisfies the root condition: every
//     tau arc of Q0 leads to a class that p0 reaches by a nonempty tau
//     path, and a stable p0 yields a stable Q0 (p0 could not leave its
//     class silently).
//   - Otherwise Q0 gets a tau self-loop: p0's in-class tau is matched by
//     Q0 --tau--> Q0 (nonempty, derivative Q0 ≈ p0's in-class derivative),
//     and the loop itself is matched by that same in-class tau of p0.
//     Hence Q0 ≈ᶜ p0, at zero extra states. The loop is not always
//     needed: mutually eps-reachable states need not be ≈ once extensions
//     differ, so a nonempty tau cycle Q0 → Q1 → Q0 through another class
//     can already witness the root condition. (With arc 0 tau 2, arc 0
//     tau 3, arc 2 tau 0 and ext(2) = {x}, states 0 and 2 reach each
//     other silently but are distinct classes.) The output keeps one
//     state per ≈-class either way, but the loop makes the ≈ᶜ-quotient
//     non-canonical: two ≈ᶜ processes can get quotients that differ only
//     by a redundant root loop. Whoever compares ≈ᶜ-quotients must read
//     the root by whether it lies on a tau cycle, as DecideSignatures
//     does, not by the loop.
func weakQuotient(f *fsp.FSP, suffix string, rootFix bool) (*fsp.FSP, []fsp.State, error) {
	p, _, err := weakPartition(f, -1)
	if err != nil {
		return nil, nil, err
	}

	rootBlk := p.Block(int32(f.Start()))
	loop := int32(-1)
	if rootFix {
		for _, t := range f.Dest(f.Start(), fsp.Tau) {
			if p.Block(int32(t)) == rootBlk {
				loop = rootBlk
				break
			}
		}
	}

	reps := make([]fsp.State, p.NumBlocks())
	for i := range reps {
		reps[i] = fsp.None
	}
	mapping := make([]fsp.State, f.NumStates())
	for s := 0; s < f.NumStates(); s++ {
		blk := p.Block(int32(s))
		mapping[s] = fsp.State(blk)
		if reps[blk] == fsp.None {
			reps[blk] = fsp.State(s)
		}
	}

	b := fsp.NewBuilderWith(f.Name()+suffix, f.Alphabet().Clone(), f.Vars().Clone())
	b.AddStates(p.NumBlocks())
	b.SetStart(fsp.State(rootBlk))
	var rows *classRows
	if p.r != nil {
		rows = p.r.classRows(reps)
	} else {
		rows = classRowsOf(p.rows, p.eps, p.Partition, reps)
	}
	for blk, row := range rows.reduce(loop) {
		b.Row(fsp.State(blk), row)
		for _, id := range f.Ext(reps[blk]).IDs() {
			b.Extend(fsp.State(blk), f.Vars().Name(id))
		}
	}
	q, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return q, mapping, nil
}

// classRows are the rows of the dense quotient, read off a derived
// ≈-partition: for each class C, first E(C) (C among them), then S_σ(C)
// for each observable σ it has one for, in action order. Each run is a
// set of classes held as its nonzero bitset words, in word order, so a
// run costs no more than its members and no more than the class count
// over 64.
type classRows struct {
	first []int32      // C's runs are first[C] .. first[C+1]-1; run first[C] is E(C)
	act   []fsp.Action // each run's action: Tau for an E run, else σ
	start []int32      // run i's words are at[start[i]:start[i+1]] and word[start[i]:start[i+1]]
	at    []int32      // a word's index: it holds classes 64·at .. 64·at+63
	word  []uint64
}

// newClassRows returns empty rows for k classes, with room for about
// runs runs and words words.
func newClassRows(k, runs, words int) *classRows {
	return &classRows{
		first: make([]int32, 0, k+1),
		act:   make([]fsp.Action, 0, runs),
		start: make([]int32, 1, runs+1),
		at:    make([]int32, 0, words),
		word:  make([]uint64, 0, words),
	}
}

// newClass starts the next class's row.
func (r *classRows) newClass() { r.first = append(r.first, int32(len(r.act))) }

// add appends word x at index at to the current run; at must grow.
func (r *classRows) add(at int32, x uint64) {
	if x != 0 {
		r.at = append(r.at, at)
		r.word = append(r.word, x)
	}
}

// endRun closes a run of act over the words added since the last run
// ended, if there are any.
func (r *classRows) endRun(act fsp.Action) {
	if n := int32(len(r.at)); n > r.start[len(r.start)-1] {
		r.act = append(r.act, act)
		r.start = append(r.start, n)
	}
}

// done closes the last class.
func (r *classRows) done() *classRows {
	r.first = append(r.first, int32(len(r.act)))
	return r
}

// run returns run i's words and their indexes.
func (r *classRows) run(i int32) ([]int32, []uint64) {
	lo, hi := r.start[i], r.start[i+1]
	return r.at[lo:hi], r.word[lo:hi]
}

// members appends run i's classes to dst in increasing order.
func (r *classRows) members(i int32, dst []int32) []int32 {
	at, word := r.run(i)
	for j, x := range word {
		for ; x != 0; x &= x - 1 {
			dst = append(dst, at[j]<<6+int32(bits.TrailingZeros64(x)))
		}
	}
	return dst
}

// classRowsOf reads the dense quotient's rows off FSP rows read through p,
// one representative per class: f itself when it has no tau arc (eps < 0;
// then E(C) = {C}), or f's saturation, whose trailing eps run is E.
func classRowsOf(rows *fsp.FSP, eps fsp.Action, p *partition.Partition, reps []fsp.State) *classRows {
	n := rows.NumTransitions() + len(reps)
	r := newClassRows(len(reps), n, n)
	var classes []int32
	// add appends the classes of arcs' targets as a run.
	add := func(act fsp.Action, arcs []fsp.Arc) {
		classes = classes[:0]
		for _, a := range arcs {
			classes = append(classes, p.Block(int32(a.To)))
		}
		slices.Sort(classes)
		var x uint64
		for i, c := range classes {
			if i > 0 && c>>6 != classes[i-1]>>6 {
				r.add(classes[i-1]>>6, x)
				x = 0
			}
			x |= 1 << (c & 63)
		}
		r.add(classes[len(classes)-1]>>6, x)
		r.endRun(act)
	}
	for c, rep := range reps {
		r.newClass()
		arcs := rows.Arcs(rep)
		k := len(arcs)
		if eps < 0 {
			r.add(int32(c)>>6, 1<<(c&63))
			r.endRun(fsp.Tau)
		} else {
			for k > 0 && arcs[k-1].Act == eps {
				k--
			}
			add(fsp.Tau, arcs[k:])
		}
		for i := 0; i < k; {
			j := i
			for j < k && arcs[j].Act == arcs[i].Act {
				j++
			}
			add(arcs[i].Act, arcs[i:j])
			i = j
		}
	}
	return r.done()
}

// reduce returns the reduced quotient's rows (see weakQuotient), in the
// (Act, To) order an FSP stores, carved at their exact size from one slab,
// with a tau self-loop at class loop (none when loop < 0). It reads each
// class's rows and, per σ, the S_σ rows of its R classes, and builds no
// bitset over the classes beyond two scratch sets.
//
// D ∈ E(C) implies E(D) ⊆ E(C), with equality iff C ∈ E(D), so the size
// of E ranks the classes: D ∈ SCC(C) iff D ∈ E(C) and |E(D)| = |E(C)|.
// A member of T(C) lies below another one iff it is in R(D) for some D in
// T(C), so R(C) is T(C) less those R(D), taken in increasing |E|.
func (r *classRows) reduce(loop int32) [][]fsp.Arc {
	k := int32(len(r.first) - 1)
	size := make([]int32, k)
	order := make([]int32, k)
	for c := range size {
		_, word := r.run(r.first[c])
		for _, x := range word {
			size[c] += int32(bits.OnesCount64(x))
		}
		order[c] = int32(c)
	}
	slices.SortFunc(order, func(x, y int32) int { return cmp.Compare(size[x], size[y]) })
	mark := make([]int32, k) // stamped with epoch
	epoch := int32(0)

	// down[C] is R(C) in class order, carved from hasse.
	var hasse, eps []int32
	down := make([][]int32, k)
	for _, c := range order {
		epoch++
		eps = r.members(r.first[c], eps[:0])
		for _, d := range eps {
			if size[d] < size[c] {
				for _, x := range down[d] {
					mark[x] = epoch
				}
			}
		}
		from := len(hasse)
		for _, d := range eps {
			if size[d] < size[c] && mark[d] != epoch {
				hasse = append(hasse, d)
			}
		}
		down[c] = hasse[from:len(hasse):len(hasse)]
	}

	// u holds U = ⋃_{D∈R(C)} S_σ(D) for the current C and σ, and under the
	// classes right below a σ-target outside U; touched lists the words
	// they set, which are cleared after each σ.
	u := make([]uint64, (k+63)/64)
	under := make([]uint64, len(u))
	var touched, next []int32
	var arcs []fsp.Arc
	end := make([]int, k)
	for c := int32(0); c < k; c++ {
		epoch++
		for _, d := range down[c] {
			mark[d] = epoch
		}
		eps = r.members(r.first[c], eps[:0])
		for _, d := range eps {
			if d == c && d == loop || d != c && (size[d] == size[c] || mark[d] == epoch) {
				arcs = append(arcs, fsp.Arc{Act: fsp.Tau, To: fsp.State(d)})
			}
		}
		// C keeps its σ-arcs to the tops of X = S_σ(C) \ U: U is closed
		// under τ*, so a member of X lies below another member of
		// S_σ(C) only if it lies right below a member of X. next[n] walks
		// the σ-runs of down[C][n] along C's, both in action order.
		next = next[:0]
		for _, d := range down[c] {
			next = append(next, r.first[d]+1)
		}
		for i := r.first[c] + 1; i < r.first[c+1]; i++ {
			act := r.act[i]
			for n, d := range down[c] {
				j := next[n]
				for j < r.first[d+1] && r.act[j] < act {
					j++
				}
				if next[n] = j; j == r.first[d+1] || r.act[j] != act {
					continue
				}
				at, word := r.run(j)
				for m, x := range word {
					if u[at[m]]|under[at[m]] == 0 {
						touched = append(touched, at[m])
					}
					u[at[m]] |= x
				}
			}
			at, word := r.run(i)
			for n, x := range word {
				for x &^= u[at[n]]; x != 0; x &= x - 1 {
					y := at[n]<<6 + int32(bits.TrailingZeros64(x))
					for _, z := range down[y] {
						if u[z>>6]|under[z>>6] == 0 {
							touched = append(touched, z>>6)
						}
						under[z>>6] |= 1 << (z & 63)
					}
				}
			}
			for n, x := range word {
				for x &^= u[at[n]] | under[at[n]]; x != 0; x &= x - 1 {
					arcs = append(arcs, fsp.Arc{Act: act, To: fsp.State(at[n]<<6 + int32(bits.TrailingZeros64(x)))})
				}
			}
			for _, w := range touched {
				u[w], under[w] = 0, 0
			}
			touched = touched[:0]
		}
		end[c] = len(arcs)
	}
	slab := slices.Clone(arcs)
	rows := make([][]fsp.Arc, k)
	lo := 0
	for c, hi := range end {
		rows[c] = slab[lo:hi:hi]
		lo = hi
	}
	return rows
}
