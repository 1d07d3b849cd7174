package fsp

import (
	"fmt"
	"math/bits"
	"slices"
)

// EpsilonName is the action name used for the empty-string relation ==eps=>
// when an FSP is saturated (Theorem 4.1a). It is chosen to be outside any
// reasonable user alphabet; Saturate fails if the name is already taken.
const EpsilonName = "ε"

// Closure holds the reflexive-transitive tau-closure of an FSP: for each
// state p, the set of states reachable from p by zero or more tau
// transitions (p ==eps=> p' in the notation of Section 2.1).
//
// Storage is dual: closure sets are word-packed bitset rows (one row per
// state, bit t of row p set iff p ==eps=> t), with sorted slices
// materialized once for the Of accessor. All set algebra — WeakRows, the
// subset rows of OrClosureInto — runs on the rows, where union is a
// word-wide OR and enumeration a popcount scan, replacing
// the former map[State]struct{}-and-sort churn with cache-friendly linear
// passes. A state with no tau arcs into other states has the trivial
// closure {s}; its row stays nil (meaning "singleton") so tau-sparse
// processes pay O(tau-states · n/64) words, not a dense n×n matrix. See
// the DESIGN note on TauClosure below.
type Closure struct {
	n    int
	rows []bitRow
	sets [][]State
}

// orInto unions the closure of s into acc, treating a nil row as the
// singleton {s}.
func (c Closure) orInto(acc bitRow, s State) {
	if row := c.rows[s]; row != nil {
		acc.or(row)
	} else {
		acc.set(s)
	}
}

// TauClosure computes the tau-closure by a BFS from every state over the
// tau-labelled subgraph. This replaces the paper's matrix-multiplication
// transitive closure (O(n^2.376)) with an O(n(n+m)) sparse traversal; see
// DESIGN.md section 4.
//
// DESIGN (bitset closure): each non-trivial closure set is a bitRow over
// the state universe, all rows carved from a single backing slab sized by
// the number of tau-source states only — states without tau arcs into
// other states keep a nil row standing for the singleton {s} (and share
// one identity slice for Of), so a tau-free NFA costs O(n), not O(n²/64)
// words. The BFS marks visited states directly in the row (bit order is
// state order, so the materialized slice needs no sort), and when it
// reaches a state whose row is already complete it ORs that row in
// wholesale instead of re-walking the subgraph — closure(t) is
// transitively closed, so its members need no further expansion.
// Downstream consumers build weak derivatives by OR-ing rows: O(n/64)
// words per union instead of O(n log n) sorting.
func TauClosure(f *FSP) Closure {
	n := f.NumStates()
	tauAdj := make([][]State, n)
	numReal := 0
	for s := 0; s < n; s++ {
		for _, a := range f.adj[s] {
			// Tau self-loops never change any closure; dropping them here
			// both shrinks the slab and keeps the BFS loop-free.
			if a.Act == Tau && a.To != State(s) {
				tauAdj[s] = append(tauAdj[s], a.To)
			}
		}
		if len(tauAdj[s]) > 0 {
			numReal++
		}
	}
	// selfs is the shared identity: sets[s] for a singleton state aliases
	// selfs[s : s+1].
	selfs := make([]State, n)
	for s := range selfs {
		selfs[s] = State(s)
	}
	words := (n + 63) / 64
	slab := make([]uint64, numReal*words)
	rows := make([]bitRow, n)
	sets := make([][]State, n)
	done := make([]bool, n)
	for s := 0; s < n; s++ {
		if len(tauAdj[s]) == 0 {
			done[s] = true
			// Full three-index slice: no spare capacity, so a caller
			// appending to Of(s) cannot clobber its neighbours' sets.
			sets[s] = selfs[s : s+1 : s+1]
		}
	}
	queue := make([]State, 0, n)
	next := 0
	for s := 0; s < n; s++ {
		if done[s] {
			continue
		}
		row := bitRow(slab[next*words : (next+1)*words])
		next++
		rows[s] = row
		queue = queue[:0]
		queue = append(queue, State(s))
		row.set(State(s))
		for i := 0; i < len(queue); i++ {
			for _, t := range tauAdj[queue[i]] {
				if done[t] {
					if rows[t] != nil {
						row.or(rows[t])
					} else {
						row.set(t)
					}
					continue
				}
				if !row.has(t) {
					row.set(t)
					queue = append(queue, t)
				}
			}
		}
		done[s] = true
		sets[s] = row.states()
	}
	return Closure{n: n, rows: rows, sets: sets}
}

// Of returns the tau-closure of s in increasing state order. The slice is
// shared; callers must not modify it.
func (c Closure) Of(s State) []State { return c.sets[s] }

// OrClosureInto ORs the tau-closure of s into the word-packed subset row
// acc: bit t of the row stands for state t, 64 states per word, so acc
// holds (n+63)/64 words for a process of n states. It exposes the
// closure's internal bitset rows to subset constructions directly: a
// weak-derivative subset is built by OR-ing closure rows, one word-wide
// OR per member, never materializing intermediate state slices.
func (c Closure) OrClosureInto(acc []uint64, s State) { c.orInto(bitRow(acc), s) }

// WeakRows reads the weak sigma-derivatives of a process's states off its
// tau-closure, one state's row at a time, reusing one accumulator.
type WeakRows struct {
	f    *FSP
	clo  Closure
	acc  bitRow
	succ []Arc // the observable arcs out of the current state's closure
	to   []State
}

// WeakRows returns a reader of the weak derivative rows of f, whose
// tau-closure c is.
func (c Closure) WeakRows(f *FSP) *WeakRows {
	return &WeakRows{f: f, clo: c, acc: newBitRow(c.n)}
}

// Row calls yield(sigma, to) once per observable action sigma that s has
// a weak sigma-derivative for, in increasing action order, with to the
// derivatives {q : s ==sigma=> q} in increasing state order; to is reused
// by the next call. Only the actions on arcs out of s's tau-closure are
// visited, and only the accumulator words they touched are scanned and
// cleared, so a row costs what the closure's arcs and their targets'
// closures hold, not the size of the alphabet or of the process.
func (w *WeakRows) Row(s State, yield func(sigma Action, to []State)) {
	w.succ = w.succ[:0]
	for _, p := range w.clo.sets[s] {
		for _, a := range w.f.adj[p] {
			if a.Act != Tau {
				w.succ = append(w.succ, a)
			}
		}
	}
	slices.SortFunc(w.succ, cmpArcs)
	for i := 0; i < len(w.succ); {
		sigma := w.succ[i].Act
		lo, hi := len(w.acc), 0
		for ; i < len(w.succ) && w.succ[i].Act == sigma; i++ {
			q := w.succ[i].To
			if row := w.clo.rows[q]; row != nil {
				w.acc.or(row)
				lo, hi = 0, len(w.acc)
			} else {
				w.acc.set(q)
				lo, hi = min(lo, int(q>>6)), max(hi, int(q>>6)+1)
			}
		}
		w.to = w.to[:0]
		for k := lo; k < hi; k++ {
			for x := w.acc[k]; x != 0; x &= x - 1 {
				w.to = append(w.to, State(k<<6+bits.TrailingZeros64(x)))
			}
			w.acc[k] = 0
		}
		yield(sigma, w.to)
	}
}

// CheckSaturable reports the one way saturation can fail: f's alphabet
// already holds EpsilonName, so P-hat would have no fresh epsilon action.
// Everything that reads P-hat, built or not, fails on it alike.
func CheckSaturable(f *FSP) error {
	if _, taken := f.alphabet.Lookup(EpsilonName); taken {
		return fmt.Errorf("alphabet already contains %q; cannot saturate", EpsilonName)
	}
	return nil
}

// Saturate builds the observable FSP P-hat of Theorem 4.1(a): it has the
// same states and extensions as f, its alphabet is Sigma plus a fresh
// epsilon action, and its transitions are the weak derivatives
//
//	p --sigma--> q  in P-hat   iff   p ==sigma=> q in f   (sigma in Sigma)
//	p --eps-->   q  in P-hat   iff   p ==eps=>   q in f   (tau-closure)
//
// Strong equivalence on P-hat coincides with observational equivalence on f
// (Propositions 2.2.1 and 2.2.2). The epsilon Action used is returned so
// callers can distinguish it from real alphabet members.
func Saturate(f *FSP) (*FSP, Action, error) {
	if err := CheckSaturable(f); err != nil {
		return nil, 0, err
	}
	clo := TauClosure(f)
	alpha := f.alphabet.Clone()
	eps := alpha.Intern(EpsilonName)

	// Each state emits its sigma-arcs in action order, then its epsilon
	// arcs (eps was interned last, so it is the largest action), each run
	// in state order. So P-hat's adjacency is born in the (Act, To) order
	// an FSP stores, without duplicates, and needs no Builder: each row is
	// assembled in a reused buffer and copied out at its exact size. (One
	// arc slab grown by doubling instead left large garbage behind and
	// raised the peak RSS of saturation-heavy workloads by 10-20%.)
	n := f.NumStates()
	weak := clo.WeakRows(f)
	var row []Arc
	adj := make([][]Arc, n)
	numTrans := 0
	for s := 0; s < n; s++ {
		row = row[:0]
		weak.Row(State(s), func(sigma Action, to []State) {
			for _, d := range to {
				row = append(row, Arc{Act: sigma, To: d})
			}
		})
		// Epsilon arcs: the closure itself (reflexive, so every state has
		// at least the self-loop).
		for _, t := range clo.Of(State(s)) {
			row = append(row, Arc{Act: eps, To: t})
		}
		adj[s] = slices.Clone(row)
		numTrans += len(row)
	}
	return &FSP{
		name:     f.name + "^",
		alphabet: alpha,
		vars:     f.vars, // shared, so the extensions carry over as they are
		start:    f.start,
		adj:      adj,
		ext:      f.ext,
		numTrans: numTrans,
	}, eps, nil
}
