// Package failures implements the failure semantics of Brookes, Hoare &
// Roscoe as used in Section 5 of the paper. For a state p of a restricted
// FSP,
//
//	failures(p) = {(s, Z) : s ∈ Sigma*, Z ⊆ Sigma,
//	               ∃p' : p ==s=> p' and ∀z ∈ Z : not (p' ==z=>)}
//
// and p ≡ q iff failures(p) = failures(q). Since for each trace s the
// refusal sets form a downward-closed family, failures(p) is fully
// described by, per trace, the antichain of maximal refusals — the
// complements of the weak initial sets of the s-derivatives. The deciders
// run the one subset-pair walk of internal/automata over the weak arcs of
// both processes: ≡ compares these antichains per visited pair of
// derivative subsets, completed-trace equivalence whether a subset holds
// a dead member, and refinement contains one side's antichain in the
// other's. They are exponential in the worst case, as they must be
// (Theorem 5.1: failure equivalence is PSPACE-complete already for
// restricted observable FSPs with |Sigma| = 2).
package failures

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"ccs/internal/automata"
	"ccs/internal/fsp"
	"ccs/internal/lts"
)

// MaxAlphabet bounds |Sigma| so refusal sets fit in a 64-bit mask.
const MaxAlphabet = 64

// RefusalSet is a set of observable actions represented as a bitmask over
// the observable alphabet (bit i = the i-th observable action, i.e. Action
// i+1).
type RefusalSet uint64

// Has reports whether observable action a (an fsp.Action > 0) is refused.
func (r RefusalSet) Has(a fsp.Action) bool { return r&(1<<uint(a-1)) != 0 }

// With returns the set extended with observable action a.
func (r RefusalSet) With(a fsp.Action) RefusalSet { return r | 1<<uint(a-1) }

// SubsetOf reports whether r ⊆ s.
func (r RefusalSet) SubsetOf(s RefusalSet) bool { return r&^s == 0 }

// Format renders the refusal set using the alphabet's action names.
func (r RefusalSet) Format(a *fsp.Alphabet) string {
	var names []string
	for _, act := range a.Observable() {
		if r.Has(act) {
			names = append(names, a.Name(act))
		}
	}
	return "{" + strings.Join(names, ",") + "}"
}

// Failure is one element of the failures set: a trace and a refusal set.
type Failure struct {
	Trace   []fsp.Action
	Refusal RefusalSet
}

// FormatTrace renders a trace using the alphabet's action names.
func FormatTrace(trace []fsp.Action, a *fsp.Alphabet) string {
	if len(trace) == 0 {
		return "ε"
	}
	names := make([]string, len(trace))
	for i, act := range trace {
		names[i] = a.Name(act)
	}
	return strings.Join(names, ".")
}

// Witness explains a failure-equivalence verdict of "different": the
// failure pair belongs to exactly one of the two processes.
type Witness struct {
	Failure Failure
	// InFirst is true when the failure belongs to the first process only.
	InFirst bool
	// Alphabet is the (possibly harmonized) alphabet the witness's actions
	// and refusal sets are expressed in; use it for rendering.
	Alphabet *fsp.Alphabet
}

// Format renders the witness failure pair as "(trace, refusal)".
func (w *Witness) Format() string {
	return "(" + FormatTrace(w.Failure.Trace, w.Alphabet) + ", " +
		w.Failure.Refusal.Format(w.Alphabet) + ")"
}

// Validate checks that f lies in the model the paper defines ≡ for: f is
// restricted (fsp.Classify), and its alphabet has at most MaxAlphabet
// observable actions. Every decider here validates its inputs with it
// first and returns its error.
func Validate(f *fsp.FSP) error {
	cls := fsp.Classify(f)
	if !cls.Restricted {
		return fmt.Errorf("failures: process %q is not restricted (every state must be accepting)", f.Name())
	}
	if f.Alphabet().NumObservable() > MaxAlphabet {
		return fmt.Errorf("failures: alphabet has %d observable actions, max %d", f.Alphabet().NumObservable(), MaxAlphabet)
	}
	return nil
}

// ValidateJoint checks that f and g declare at most MaxAlphabet observable
// actions between them. A pair over different alphabets is decided on the
// disjoint union of its processes, whose alphabet can hold no more than
// both declared alphabets together, so the check keeps every refusal set
// of the union within a mask.
func ValidateJoint(f, g *fsp.FSP) error {
	a, b := f.Alphabet(), g.Alphabet()
	n := a.NumObservable()
	if !a.Equal(b) {
		for act := fsp.Action(1); int(act) < b.Len(); act++ {
			if _, ok := a.Lookup(b.Name(act)); !ok {
				n++
			}
		}
	}
	if n > MaxAlphabet {
		return fmt.Errorf("failures: alphabets of %q and %q have %d observable actions together, max %d", f.Name(), g.Name(), n, MaxAlphabet)
	}
	return nil
}

// semantics precomputes weak machinery for one FSP: the tau-closure and
// the weak sigma-arc index (internal/lts, one dense label per observable
// action), built once per process; the subset walk steps on the index, so
// derivative subsets stay closure-closed without re-expansion.
type semantics struct {
	clo    fsp.Closure
	idx    *lts.Index // label i = i-th observable action (fsp.Action i+1)
	numObs int
	// weakInitials[s] = the observable actions s can weakly perform.
	weakInitials []RefusalSet // stored as "can do" masks; refusal = complement
	full         RefusalSet
}

func newSemantics(f *fsp.FSP) *semantics {
	clo := fsp.TauClosure(f)
	numObs := f.Alphabet().NumObservable()
	sem := &semantics{clo: clo, numObs: numObs, full: allOf(numObs)}
	sem.idx = lts.FromWeak(f, clo)
	// s ==sigma=> iff the weak-arc span of (s, sigma) is nonempty, so the
	// weak initials fall straight out of the index's forward CSR.
	sem.weakInitials = make([]RefusalSet, f.NumStates())
	fwdStart, fwdLabel, _ := sem.idx.Fwd()
	for s := 0; s < f.NumStates(); s++ {
		var can RefusalSet
		for j := fwdStart[s]; j < fwdStart[s+1]; j++ {
			can = can.With(fsp.Action(fwdLabel[j] + 1))
		}
		sem.weakInitials[s] = can
	}
	return sem
}

// allOf returns the set of the first n observable actions.
func allOf(n int) RefusalSet { return ^RefusalSet(0) >> (MaxAlphabet - n) }

// maxRefusals returns the antichain of maximal refusal sets over a
// derivative set: { Sigma \ weakInitials(p') : p' ∈ set }, maximal under ⊆,
// sorted for canonical comparison.
func (sem *semantics) maxRefusals(set []int32) []RefusalSet {
	raw := make([]RefusalSet, 0, len(set))
	for _, s := range set {
		raw = append(raw, sem.full&^sem.weakInitials[s])
	}
	// Keep maximal elements only.
	var out []RefusalSet
	for i, r := range raw {
		maximal := true
		for j, s := range raw {
			if i != j && r != s && r.SubsetOf(s) {
				maximal = false
				break
			}
			if i > j && r == s {
				maximal = false // dedup equal sets, keep first
				break
			}
		}
		if maximal {
			out = append(out, r)
		}
	}
	slices.Sort(out)
	return out
}

// refusals is sem's subset construction observing maximal refusals.
func (sem *semantics) refusals() *automata.Subsets[[]RefusalSet] {
	return automata.NewSubsets(sem.idx, sem.maxRefusals)
}

// within reports whether r lies in the downward closure of the antichain.
func within(r RefusalSet, anti []RefusalSet) bool {
	for _, m := range anti {
		if r.SubsetOf(m) {
			return true
		}
	}
	return false
}

// pairWalk validates f and g, each and jointly, moves both into their
// disjoint union when their alphabets differ, and runs the subset-pair
// walk from p in f and q in g: sub builds a process's subset construction
// (once when both sides are one process), dead gives each side's rule for
// a step that empties it, and agree judges each visited pair. On a
// mismatch it returns a witness holding the trace and the alphabet. If
// the trace's last action emptied one side, the trace exists on the other
// side alone and (trace, ∅) is a failure of it alone, which completes the
// witness; otherwise at holds the two observations at the end of the
// trace for the caller to complete it from. visited counts the pairs.
func pairWalk[O any](ctx context.Context, f *fsp.FSP, p fsp.State, g *fsp.FSP, q fsp.State,
	sub func(*semantics) *automata.Subsets[O], dead [2]automata.Rule, agree func(a, b O) bool,
) (w *Witness, at []O, visited int, err error) {
	if err := Validate(f); err != nil {
		return nil, nil, 0, err
	}
	if err := Validate(g); err != nil {
		return nil, nil, 0, err
	}
	if err := ValidateJoint(f, g); err != nil {
		return nil, nil, 0, err
	}
	if !f.Alphabet().Equal(g.Alphabet()) {
		u, off, err := fsp.DisjointUnion(f, g)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("failures: %w", err)
		}
		f, g, q = u, u, off+q
	}
	semF := newSemantics(f)
	semG, a := semF, sub(semF)
	b := a
	if g != f {
		semG = newSemantics(g)
		b = sub(semG)
	}
	m, visited, err := automata.Walk(ctx, []automata.Side[O]{
		{Subsets: a, Root: automata.Intern(a, semF.clo.Of(p)), Dead: dead[0]},
		{Subsets: b, Root: automata.Intern(b, semG.clo.Of(q)), Dead: dead[1]},
	}, agree)
	if m == nil || err != nil {
		return nil, nil, visited, err
	}
	w = &Witness{Failure: Failure{Trace: make([]fsp.Action, len(m.Word))}, Alphabet: f.Alphabet()}
	for i, sym := range m.Word {
		w.Failure.Trace[i] = fsp.Action(sym + 1) // symbol i is observable action i+1
	}
	if deadA, deadB := a.IsEmpty(m.At[0]), b.IsEmpty(m.At[1]); deadA || deadB {
		w.InFirst = deadB
		return w, nil, visited, nil
	}
	return w, []O{a.Observation(m.At[0]), b.Observation(m.At[1])}, visited, nil
}

// Equivalent decides failure equivalence of the start states of the
// restricted processes f and g. On inequivalence the returned witness
// carries a failure pair present on exactly one side. It returns ctx's
// error once ctx is cancelled.
func Equivalent(ctx context.Context, f, g *fsp.FSP) (bool, *Witness, error) {
	eq, w, _, err := equivalent(ctx, f, f.Start(), g, g.Start())
	return eq, w, err
}

// equivalent decides failures(p) = failures(q) for states p of f and q of
// g, and counts the subset pairs visited.
func equivalent(ctx context.Context, f *fsp.FSP, p fsp.State, g *fsp.FSP, q fsp.State) (bool, *Witness, int, error) {
	w, at, visited, err := pairWalk(ctx, f, p, g, q, (*semantics).refusals,
		[2]automata.Rule{automata.Stop, automata.Stop}, slices.Equal[[]RefusalSet])
	if at != nil {
		w.refusalFrom(at[0], at[1])
	}
	return w == nil && err == nil, w, visited, err
}

// refusalFrom completes w with a refusal set in one antichain's downward
// closure but not the other's, and the side it belongs to.
func (w *Witness) refusalFrom(ra, rb []RefusalSet) {
	for _, r := range ra {
		if !within(r, rb) {
			w.Failure.Refusal, w.InFirst = r, true
			return
		}
	}
	// The antichains differ, so some maximal element of one is missing
	// from the other's closure.
	for _, r := range rb {
		if !within(r, ra) {
			w.Failure.Refusal, w.InFirst = r, false
			return
		}
	}
}

// Enumerate lists all failures of p with traces up to maxLen, maximal
// refusals only, in BFS trace order. Intended for displays, tests and
// brute-force cross-validation on small processes.
func Enumerate(f *fsp.FSP, p fsp.State, maxLen int) ([]Failure, error) {
	if err := Validate(f); err != nil {
		return nil, err
	}
	sem := newSemantics(f)
	sub := sem.refusals()
	type node struct {
		set   int32
		trace []fsp.Action
	}
	var out []Failure
	queue := []node{{set: automata.Intern(sub, sem.clo.Of(p))}}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, r := range sub.Observation(cur.set) {
			out = append(out, Failure{Trace: cur.trace, Refusal: r})
		}
		if len(cur.trace) == maxLen {
			continue
		}
		for i, sigma := range f.Alphabet().Observable() {
			next := sub.Next(cur.set, i)
			if sub.IsEmpty(next) {
				continue
			}
			nt := make([]fsp.Action, len(cur.trace)+1)
			copy(nt, cur.trace)
			nt[len(cur.trace)] = sigma
			queue = append(queue, node{set: next, trace: nt})
		}
	}
	return out, nil
}
