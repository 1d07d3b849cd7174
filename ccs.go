// Package ccs is a library for checking equivalence of finite state
// processes in Milner's Calculus of Communicating Systems, implementing
// Kanellakis & Smolka, "CCS Expressions, Finite State Processes, and Three
// Problems of Equivalence" (PODC 1983 / Information and Computation 1990).
//
// It provides:
//
//   - the finite state process (FSP) model — NFAs with the unobservable
//     action tau and node-label "extensions" — and its Table I hierarchy;
//   - strong equivalence in O(m log n) via generalized partitioning
//     (relational coarsest partition, Paige-Tarjan);
//   - observational (weak) equivalence in polynomial time via tau-closure
//     saturation (the paper's headline result: unlike NFA equivalence it is
//     NOT PSPACE-hard);
//   - the bounded approximants ≈_k and ≃_k, failure equivalence, trace
//     equivalence, quotient minimization, distinguishing HML formulas, and
//     star expressions with CCS semantics.
//
// The facade in this package covers the common cases; the internal packages
// expose the full machinery to the example programs and benchmarks.
package ccs

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ccs/internal/compose"
	"ccs/internal/core"
	"ccs/internal/expr"
	"ccs/internal/failures"
	"ccs/internal/fsp"
	"ccs/internal/hml"
	"ccs/internal/kequiv"
	"ccs/internal/simulation"
)

// Process is a finite state process (Definition 2.1.1). Construct one with
// NewBuilder, ParseProcess, or FromExpression.
type Process = fsp.FSP

// State identifies a process state.
type State = fsp.State

// Builder incrementally constructs a Process.
type Builder = fsp.Builder

// NewBuilder returns an empty process builder.
func NewBuilder(name string) *Builder { return fsp.NewBuilder(name) }

// ParseProcess reads a process in the textual interchange format (see
// internal/fsp: "states", "start", "ext", "arc" directives). A "states"
// count above fsp.MaxStates is an input error.
func ParseProcess(r io.Reader) (*Process, error) { return fsp.Parse(r) }

// ParseProcessString is ParseProcess over a string.
func ParseProcessString(s string) (*Process, error) { return fsp.ParseString(s) }

// FormatProcess renders a process in the textual interchange format.
func FormatProcess(p *Process) string { return fsp.FormatString(p) }

// DOT renders a process as a Graphviz digraph.
func DOT(p *Process) string { return fsp.DOTString(p) }

// FromExpression parses a star expression (Section 2.3 syntax: symbols,
// '+', juxtaposition, '*', '0' for ∅) and returns its representative FSP
// per Definition 2.3.1.
func FromExpression(src string) (*Process, error) {
	e, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	return expr.Representative(e)
}

// Relation selects an equivalence notion of Table II.
type Relation int

// The equivalence notions of Table II, plus trace equivalence (≈_1) as a
// named convenience.
const (
	// Strong is strong (observational) equivalence ~, Definition 2.2.3.
	Strong Relation = iota + 1
	// Weak is observational equivalence ≈, Definition 2.2.1.
	Weak
	// Trace is ≈_1: language equivalence (Proposition 2.2.3b).
	Trace
	// Failure is failure equivalence ≡, Definition 2.2.4.
	Failure
	// Congruence is Milner's observation congruence ≈ᶜ.
	Congruence
	// Simulation is mutual similarity.
	Simulation
)

// ParseRelation reads a relation name: "strong", "weak", "trace",
// "failure", "k<N>" (the ≈_N approximant) or "limited<N>" (the ≃_N
// approximant). The integer argument of the approximants is returned
// separately.
func ParseRelation(s string) (Relation, int, error) {
	switch s {
	case "strong":
		return Strong, 0, nil
	case "weak", "observational":
		return Weak, 0, nil
	case "trace", "language":
		return Trace, 0, nil
	case "failure", "failures":
		return Failure, 0, nil
	case "congruence", "observation-congruence":
		return Congruence, 0, nil
	case "simulation", "sim":
		return Simulation, 0, nil
	}
	if rest, ok := strings.CutPrefix(s, "k"); ok {
		k, err := strconv.Atoi(rest)
		if err == nil && k >= 0 {
			return relationK, k, nil
		}
	}
	if rest, ok := strings.CutPrefix(s, "limited"); ok {
		k, err := strconv.Atoi(rest)
		if err == nil && k >= 0 {
			return relationLimited, k, nil
		}
	}
	return 0, 0, fmt.Errorf("ccs: unknown relation %q", s)
}

const (
	relationK Relation = iota + 100
	relationLimited
)

func (r Relation) String() string {
	switch r {
	case Strong:
		return "strong"
	case Weak:
		return "weak"
	case Trace:
		return "trace"
	case Failure:
		return "failure"
	case Congruence:
		return "observation congruence"
	case Simulation:
		return "simulation"
	case relationK:
		return "k-observational"
	case relationLimited:
		return "k-limited"
	default:
		return "unknown"
	}
}

// Equivalent reports whether the start states of p and q are related by
// rel. The k parameter is used only by the approximant relations returned
// by ParseRelation.
func Equivalent(p, q *Process, rel Relation, k int) (bool, error) {
	switch rel {
	case Strong:
		return core.StrongEquivalent(p, q)
	case Weak:
		return core.WeakEquivalent(p, q)
	case Trace:
		return kequiv.Equivalent(context.Background(), p, q, 1)
	case Failure:
		eq, _, err := failures.Equivalent(context.Background(), p, q)
		return eq, err
	case Congruence:
		return core.ObservationCongruent(p, q)
	case Simulation:
		return simulation.Equivalent(p, q)
	case relationK:
		return kequiv.Equivalent(context.Background(), p, q, k)
	case relationLimited:
		u, off, err := fsp.DisjointUnion(p, q)
		if err != nil {
			return false, err
		}
		return core.LimitedEquivalentStates(u, p.Start(), off+q.Start(), k)
	default:
		return false, fmt.Errorf("ccs: unknown relation %d", rel)
	}
}

// StronglyEquivalent reports p ~ q for the start states (Theorem 3.1:
// O(m log n + n)).
func StronglyEquivalent(p, q *Process) (bool, error) {
	return core.StrongEquivalent(p, q)
}

// ObservationallyEquivalent reports p ≈ q for the start states (Theorem
// 4.1a: polynomial time).
func ObservationallyEquivalent(p, q *Process) (bool, error) {
	return core.WeakEquivalent(p, q)
}

// KObservationallyEquivalent reports p ≈_k q (Definition 2.2.1; PSPACE-
// complete for fixed k ≥ 1, so worst-case exponential here).
func KObservationallyEquivalent(p, q *Process, k int) (bool, error) {
	return kequiv.Equivalent(context.Background(), p, q, k)
}

// TraceEquivalent reports language equivalence ≈_1.
func TraceEquivalent(p, q *Process) (bool, error) {
	return kequiv.Equivalent(context.Background(), p, q, 1)
}

// FailureWitness describes a failure pair present in exactly one process.
type FailureWitness struct {
	// Trace is the witness trace, rendered with action names.
	Trace string
	// Refusal is the witness refusal set, rendered with action names.
	Refusal string
	// InFirst reports whether the failure belongs to the first process.
	InFirst bool
}

// FailureEquivalent reports p ≡ q for the start states of two restricted
// processes, with a witness on inequivalence.
func FailureEquivalent(p, q *Process) (bool, *FailureWitness, error) {
	eq, w, err := failures.Equivalent(context.Background(), p, q)
	if err != nil || eq {
		return eq, nil, err
	}
	return false, &FailureWitness{
		Trace:   failures.FormatTrace(w.Failure.Trace, w.Alphabet),
		Refusal: w.Failure.Refusal.Format(w.Alphabet),
		InFirst: w.InFirst,
	}, nil
}

// MinimizeStrong returns the state-minimal process strongly equivalent to
// p (the quotient by ~).
func MinimizeStrong(p *Process) (*Process, error) {
	q, _, err := core.QuotientStrong(p)
	return q, err
}

// MinimizeWeak returns a process observationally equivalent to p with one
// state per ≈-class.
func MinimizeWeak(p *Process) (*Process, error) {
	q, _, err := core.QuotientWeak(p)
	return q, err
}

// Explain returns a Hennessy-Milner formula satisfied by p's start state
// but not q's, witnessing strong inequivalence, rendered as a string. It
// fails if the processes are strongly equivalent.
func Explain(p, q *Process) (string, error) {
	u, off, err := fsp.DisjointUnion(p, q)
	if err != nil {
		return "", err
	}
	phi, err := hml.Distinguish(u, p.Start(), off+q.Start())
	if err != nil {
		return "", err
	}
	return phi.String(), nil
}

// ExplainWeak is Explain for observational equivalence: modalities range
// over Sigma ∪ {ε}.
func ExplainWeak(p, q *Process) (string, error) {
	u, off, err := fsp.DisjointUnion(p, q)
	if err != nil {
		return "", err
	}
	phi, _, err := hml.DistinguishWeak(u, p.Start(), off+q.Start())
	if err != nil {
		return "", err
	}
	return phi.String(), nil
}

// CCSEquivalentExpressions decides the CCS equivalence problem of Section
// 2.3 for two star expressions: strong equivalence of their representative
// FSPs.
func CCSEquivalentExpressions(e1, e2 string) (bool, error) {
	a, err := expr.Parse(e1)
	if err != nil {
		return false, err
	}
	b, err := expr.Parse(e2)
	if err != nil {
		return false, err
	}
	return expr.CCSEquivalent(a, b)
}

// LanguageEquivalentExpressions decides classical language equivalence of
// two star expressions, for contrast with CCSEquivalentExpressions.
func LanguageEquivalentExpressions(e1, e2 string) (bool, error) {
	a, err := expr.Parse(e1)
	if err != nil {
		return false, err
	}
	b, err := expr.Parse(e2)
	if err != nil {
		return false, err
	}
	return expr.LanguageEquivalent(a, b)
}

// ModelClasses names the Table I model classes the process belongs to.
func ModelClasses(p *Process) []string {
	models := fsp.Classify(p).Models()
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.String()
	}
	return out
}

// ObservationCongruent reports Milner's observation congruence ≈ᶜ — the
// largest congruence inside ≈, with the strengthened root condition (an
// initial tau must be matched by at least one tau). tau·a ≈ a holds but
// tau·a ≈ᶜ a does not.
func ObservationCongruent(p, q *Process) (bool, error) {
	return core.ObservationCongruent(p, q)
}

// SimulationEquivalent reports mutual similarity of the start states — the
// preorder-based notion sitting strictly between ~ and ≈_1.
func SimulationEquivalent(p, q *Process) (bool, error) {
	return simulation.Equivalent(p, q)
}

// Simulates reports whether q's start state (strongly) simulates p's.
func Simulates(p, q *Process) (bool, error) {
	return simulation.Simulates(p, q)
}

// Compose returns the CCS parallel composition p | q: interleaving plus
// tau handshakes between complementary actions ("a" with "a'"). This is
// the composition operator whose product semantics Section 6 of the paper
// sketches for extended expressions; it is the reachable product of the
// two-component network (p | q).
func Compose(p, q *Process) (*Process, error) { return compose.New("", p, q).FSP() }

// Restrict returns p with all transitions on the given action names (and
// their co-names) removed — Milner's P\L, the reachable product of the
// one-component network p with names hidden, named p\{names}.
func Restrict(p *Process, names ...string) (*Process, error) {
	name := p.Name() + "\\{" + strings.Join(names, ",") + "}"
	return compose.New(name, p).Hide(names...).FSP()
}

// Intersect returns the synchronized product of p and q; in the standard
// model it accepts the intersection of the languages.
func Intersect(p, q *Process) (*Process, error) { return fsp.Intersect(p, q) }

// Satisfies model-checks a Hennessy-Milner formula (syntax: tt, ff, <a>φ,
// [a]φ, !φ, φ&φ, φ|φ, ext(x)) at the start state of p.
func Satisfies(p *Process, formula string) (bool, error) {
	phi, err := hml.ParseFormula(formula, p)
	if err != nil {
		return false, err
	}
	return hml.Satisfies(p, p.Start(), phi), nil
}

// SatisfyingStates model-checks a formula and returns the states where it
// holds.
func SatisfyingStates(p *Process, formula string) ([]State, error) {
	phi, err := hml.ParseFormula(formula, p)
	if err != nil {
		return nil, err
	}
	set := hml.Sat(p, phi)
	var out []State
	for s, ok := range set {
		if ok {
			out = append(out, State(s))
		}
	}
	return out, nil
}

// Saturate returns the observable weak form P-hat of Theorem 4.1(a): weak
// derivatives as direct arcs plus an "ε" action for the tau-closure.
// Useful for model-checking weak modalities (<eps> in formulas).
func Saturate(p *Process) (*Process, error) {
	sat, _, err := fsp.Saturate(p)
	return sat, err
}

// FailureRefines reports whether impl refines spec in the failures
// preorder (failures(impl) ⊆ failures(spec)); on failure of refinement the
// witness carries a failure of impl that spec forbids. Both processes must
// be restricted.
func FailureRefines(spec, impl *Process) (bool, *FailureWitness, error) {
	ok, w, err := failures.RefinesProcesses(spec, impl)
	if err != nil || ok {
		return ok, nil, err
	}
	return false, &FailureWitness{
		Trace:   failures.FormatTrace(w.Failure.Trace, w.Alphabet),
		Refusal: w.Failure.Refusal.Format(w.Alphabet),
		InFirst: w.InFirst,
	}, nil
}

// TraceWitness decides language equality of the start states and returns
// the shortest distinguishing word (action names) when the languages
// differ. On restricted processes this is exactly ≈_1 (Prop. 2.2.3b).
func TraceWitness(p, q *Process) (equal bool, word []string, err error) {
	return kequiv.TraceWitness(p, q)
}

// Divergent reports the states of p from which an infinite run of
// unobservable tau moves is possible. The paper's equivalences are
// divergence-blind; this predicate surfaces where that matters.
func Divergent(p *Process) []State {
	var out []State
	for s, d := range fsp.Divergent(p) {
		if d {
			out = append(out, State(s))
		}
	}
	return out
}
