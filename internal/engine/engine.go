// Package engine provides a reusable, concurrent batch equivalence-checking
// engine on top of the single-shot algorithms in core, kequiv, failures and
// simulation.
//
// The two ideas are:
//
//   - Per-process artifact caching. Deciding p ≈ q from scratch derives
//     the ≈-partition of both processes on every call, even when the
//     same process appears in many queries. A Checker derives each
//     process's canonical quotients modulo ~, ≈ and ≈ᶜ exactly once, so a
//     query against an already-seen process pays only a small check on
//     the minimized quotients (valid by transitivity: p ~ min~(p),
//     p ≈ᶜ min≈ᶜ(p), p ≈ min≈(p), and ≈ refines every ≈_k and ≃_k,
//     Propositions 2.2.1 and 2.2.3). The quotients are coarsest, so two
//     processes are related iff the reachable parts of their quotients
//     are isomorphic, and that isomorphism is unique. Each quotient
//     therefore carries a signature record (core.NewSignature): two
//     records reject most inequivalent pairs outright and otherwise name
//     the one candidate bijection, which is checked in O(n + m)
//     (core.DecideSignatures). The ≈- and ≈ᶜ-quotients are reduced (see
//     core.QuotientWeak): they keep only the arcs their weak closure
//     cannot rebuild, ~30x fewer than the dense weak-closed quotient on
//     the benchmark's pair shapes, so records, fingerprints and store
//     entries are built from few arcs. Only a pair the records leave open
//     runs a partition solve, on the disjoint union of the two quotients
//     (core.WeakEquivalent, core.ObservationCongruent), or a subset walk
//     from the two roots for trace, ≈_k and failure equivalence
//     (kequiv.Equivalent, failures.Equivalent). Failure equivalence reads
//     the ≈-quotients too: matched weak derivatives have equal weak
//     initials, so ≈ refines ≡ and p ≡ q iff min≈(p) ≡ min≈(q).
//
//   - Sharing. A Checker is safe for concurrent use, so callers fan
//     queries out over their own workers (the facade's Checker.DoAll)
//     and every worker reads and fills the one cache.
//
// Processes are immutable (see fsp.FSP), so the cache is keyed by pointer
// identity first, with a structural-hash fallback (fsp.Fingerprint /
// fsp.StructuralEqual): parsing the same process text twice yields two
// pointers but one set of cached artifacts.
//
// The engine is also network-aware: CheckNetwork decides queries about a
// compose.Network by the minimize-then-compose pipeline — each component
// is replaced by its cached quotient (~ for the strong relations, ≈ᶜ
// otherwise; both are congruences for composition, restriction and
// relabeling) before the product is materialized, so the composed state
// space is built from minimal parts. See internal/compose.
package engine

import (
	"context"
	"fmt"
	"sync"

	"ccs/internal/core"
	"ccs/internal/failures"
	"ccs/internal/fsp"
	"ccs/internal/kequiv"
	"ccs/internal/obs"
	"ccs/internal/simulation"
	"ccs/internal/store"
)

// Relation selects an equivalence notion for a batch query. It mirrors the
// facade's Table II enumeration; the facade maps its own constants onto
// these.
type Relation int

const (
	// Strong is strong equivalence ~ (Definition 2.2.3).
	Strong Relation = iota + 1
	// Weak is observational equivalence ≈ (Definition 2.2.1).
	Weak
	// Trace is language equivalence ≈_1 (Proposition 2.2.3b).
	Trace
	// Failure is failure equivalence ≡ (Definition 2.2.4).
	Failure
	// Congruence is Milner's observation congruence ≈ᶜ.
	Congruence
	// Simulation is mutual strong similarity.
	Simulation
	// K is the bounded approximant ≈_k; Query.K carries k.
	K
	// Limited is the bounded approximant ≃_k; Query.K carries k.
	Limited
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
		return "congruence"
	case Simulation:
		return "simulation"
	case K:
		return "k-observational"
	case Limited:
		return "k-limited"
	default:
		return "unknown"
	}
}

// Query is one equivalence question: are the start states of P and Q
// related by Rel? K is the bound for the approximant relations K and
// Limited and is ignored otherwise.
type Query struct {
	P, Q *fsp.FSP
	Rel  Relation
	K    int
}

// Checker is a concurrency-safe batch equivalence checker with a
// per-process artifact cache. The zero value is not usable; call New.
type Checker struct {
	st *store.Store // optional persistent tier; nil means memory-only

	mu        sync.Mutex
	procs     map[*fsp.FSP]*artifacts
	byHash    map[uint64][]*artifacts
	canonical int
}

// New returns an empty memory-only Checker.
func New() *Checker {
	return NewWithStore(nil)
}

// NewWithStore returns a Checker backed by a persistent artifact store: the
// in-memory sync.Once cache stays the first tier, but on a memory miss each
// quotient derivation first consults st (keyed by the process's structural
// fingerprint, guarded by a second independent fingerprint), and every
// freshly derived quotient is spilled back. Signature records stay in
// memory. A nil st is the same as New.
func NewWithStore(st *store.Store) *Checker {
	return &Checker{
		st:     st,
		procs:  map[*fsp.FSP]*artifacts{},
		byHash: map[uint64][]*artifacts{},
	}
}

// StoreStats reports the persistent tier's counters; ok is false for a
// memory-only Checker.
func (c *Checker) StoreStats() (s store.Stats, ok bool) {
	if c.st == nil {
		return store.Stats{}, false
	}
	return c.st.Stats(), true
}

// artifacts caches the derived forms of one process. Each field group is
// guarded by its own sync.Once so concurrent queries derive it exactly
// once; later queries get the memoized value immediately.
type artifacts struct {
	f *fsp.FSP

	// fp is the structural fingerprint (the store key), computed when the
	// record is created; fp2 is the independent collision-guard hash,
	// derived lazily because it is only needed when a store is attached.
	fp      uint64
	fp2Once sync.Once
	fp2     uint64

	// restricted records whether f is restricted (fsp.Classify), the half
	// of failure equivalence's input check that f's structure decides.
	restrictedOnce sync.Once
	restricted     bool

	quot [numKinds]quotientArt
}

// quotientArt is one cached quotient of a process and the quotient's
// signature record (core.NewSignature). Both live on the artifact record
// of the process they derive from, so a query looks up its two inputs
// and never its quotients.
type quotientArt struct {
	once sync.Once
	min  *fsp.FSP
	err  error

	sigOnce sync.Once
	sig     *core.Signature
	sigErr  error
}

// quotientKind names one of the three cached quotients.
type quotientKind int

const (
	strongKind quotientKind = iota // modulo ~ (core.QuotientStrong)
	weakKind                       // reduced, modulo ≈ (core.QuotientWeak)
	congKind                       // reduced, modulo ≈ᶜ (core.QuotientCongruence)
	numKinds
)

// kinds gives each quotient kind its span name, its persistent-store kind,
// its telemetry and its derivation.
var kinds = [numKinds]struct {
	name   string
	store  store.Kind
	am     artMetrics
	derive func(*fsp.FSP) (*fsp.FSP, []fsp.State, error)
}{
	strongKind: {"strong", store.KindStrongMin, amStrong, core.QuotientStrong},
	weakKind:   {"weak", store.KindWeakMin, amWeak, core.QuotientWeak},
	congKind:   {"cong", store.KindCongMin, amCong, core.QuotientCongruence},
}

// aliasHighWater bounds the pointer-alias entries of c.procs: beyond
// canonical records plus this many aliases, the alias entries are pruned.
// Without the bound, a loop composing the same network forever would
// retain every abandoned composed FSP as a permanent map key; with it, a
// pruned alias merely pays one re-fingerprint on its next use.
const aliasHighWater = 1024

// art returns the (possibly fresh) artifact record for p. The fast path is
// pointer identity; on a miss the structural fingerprint is consulted, so
// a structurally identical process seen under another pointer (the same
// text parsed twice, the same network composed twice) adopts the existing
// record instead of silently doubling every artifact.
func (c *Checker) art(p *fsp.FSP) *artifacts {
	c.mu.Lock()
	if a, ok := c.procs[p]; ok {
		c.mu.Unlock()
		return a
	}
	c.mu.Unlock()
	// Fingerprinting is O(states + arcs) and must not serialize the worker
	// pool; Fingerprint is pure, so concurrent first touches of one
	// pointer at worst hash twice.
	h := fsp.Fingerprint(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.procs[p]; ok { // raced with another first touch
		return a
	}
	for _, a := range c.byHash[h] {
		if fsp.StructuralEqual(a.f, p) {
			c.aliasInsert(p, a)
			return a
		}
	}
	a := &artifacts{f: p, fp: h}
	c.procs[p] = a
	c.byHash[h] = append(c.byHash[h], a)
	c.canonical++
	return a
}

// aliasInsert maps the alias pointer p onto the canonical record a,
// pruning all alias entries first when they exceed the high-water mark.
// Called with c.mu held.
func (c *Checker) aliasInsert(p *fsp.FSP, a *artifacts) {
	if len(c.procs) >= c.canonical+aliasHighWater {
		for k, rec := range c.procs {
			if k != rec.f {
				delete(c.procs, k)
			}
		}
	}
	c.procs[p] = a
}

// Processes reports how many structurally distinct processes the cache has
// seen (pointer aliases of the same structure count once).
func (c *Checker) Processes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.canonical
}

// keys returns the store key (the structural fingerprint) and the
// collision-guard fingerprint of a's process, deriving the second hash
// lazily: it is only paid on records that actually talk to the store.
func (c *Checker) keys(a *artifacts) (fp, fp2 uint64) {
	a.fp2Once.Do(func() { a.fp2 = fsp.Fingerprint2(a.f) })
	return a.fp, a.fp2
}

// quotient returns the memoized quotient of kind k of a's process. On a
// memory miss it consults the store, else derives the quotient and spills
// it.
func (c *Checker) quotient(a *artifacts, k quotientKind) (*fsp.FSP, error) {
	kd, qa := &kinds[k], &a.quot[k]
	kd.am.req.Inc()
	qa.once.Do(func() {
		defer derivationGuard(&qa.err)
		var fp, fp2 uint64
		if c.st != nil {
			fp, fp2 = c.keys(a)
			if min, ok := c.st.GetFSP(fp, fp2, kd.store); ok {
				kd.am.storeHit.Inc()
				qa.min = min
				return
			}
		}
		kd.am.derived.Inc()
		qa.min, _, qa.err = kd.derive(a.f)
		if c.st != nil && qa.err == nil {
			c.st.PutFSP(fp, fp2, kd.store, qa.min)
		}
	})
	return qa.min, qa.err
}

// signature returns the memoized signature record of a's quotient of kind
// k, which must already have been derived without error. It is derived in
// memory and never spilled to the store.
func (c *Checker) signature(a *artifacts, k quotientKind) (*core.Signature, error) {
	qa := &a.quot[k]
	amSig.req.Inc()
	qa.sigOnce.Do(func() {
		defer derivationGuard(&qa.sigErr)
		amSig.derived.Inc()
		qa.sig = core.NewSignature(qa.min)
	})
	return qa.sig, qa.sigErr
}

// StrongQuotient returns the memoized canonical quotient of p modulo ~.
func (c *Checker) StrongQuotient(p *fsp.FSP) (*fsp.FSP, error) {
	return c.quotient(c.art(p), strongKind)
}

// CongruenceQuotient returns the memoized reduced ≈ᶜ-quotient of p
// (core.QuotientCongruence): one state per ≈-class with the root
// condition restored in place (a root tau self-loop when needed), sound
// to substitute for p inside any network context. The persistent tier
// stores it under KindCongMin, whose codec byte is bumped whenever the
// quotient's shape changes, so entries of an older shape decode as cold
// misses.
func (c *Checker) CongruenceQuotient(p *fsp.FSP) (*fsp.FSP, error) {
	return c.quotient(c.art(p), congKind)
}

// failureModel checks p, whose record is a, against the model failure
// equivalence is defined for (failures.Validate), so a failure query
// fails exactly when the one-shot checker does. Restrictedness is
// structural and kept on the record. The alphabet is not: structurally
// equal processes may declare different ones. An error is rebuilt from p
// itself, so that it names p.
func (a *artifacts) failureModel(p *fsp.FSP) error {
	a.restrictedOnce.Do(func() { a.restricted = fsp.Classify(a.f).Restricted })
	if a.restricted && p.Alphabet().NumObservable() <= failures.MaxAlphabet {
		return nil
	}
	return failures.Validate(p)
}

// derivationGuard converts a panic inside an artifact derivation into a
// stored error. A malformed process (a hand-built zero value, a corrupted
// state index) panics deep inside fsp or lts; sync.Once would mark the
// derivation done anyway, so without this the first caller would crash the
// process and later callers would read a nil artifact. With it, every
// caller of the memoized accessor gets the same error.
func derivationGuard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("engine: artifact derivation panicked: %v", r)
	}
}

// Check answers one query synchronously, consulting and populating the
// artifact cache. A pointer-identical pair short-circuits to true: every
// supported relation is reflexive. A failure query validates its
// processes first (failures.Validate), so it errors exactly when the
// one-shot failures.Equivalent does, with the same message.
//
// Check never panics: a malformed process that blows up deep inside an
// algorithm (e.g. the out-of-range guards of internal/lts) is caught and
// reported as the query's error, so one bad query in a batch cannot tear
// down the worker pool or the caller's process.
func (c *Checker) Check(ctx context.Context, q Query) (eq bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			eq, err = false, fmt.Errorf("engine: %s query panicked: %v", q.Rel, r)
		}
	}()
	return c.check(ctx, q)
}

func (c *Checker) check(ctx context.Context, q Query) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if q.P == nil || q.Q == nil {
		return false, fmt.Errorf("engine: nil process in query")
	}
	// Every relation is decided on the pair's cached quotients, by
	// transitivity: p ~ min~(p), and mutual similarity is likewise
	// invariant under ~-quotienting (Strong, Simulation); p ≈ᶜ min≈ᶜ(p)
	// (Congruence); p ≈ min≈(p), and ≈ refines ≈_k and ≃_k for every k
	// (Weak, Trace, K, Limited; Proposition 2.2.1) and ≡ (Failure).
	kind := weakKind
	switch q.Rel {
	case Strong, Simulation:
		kind = strongKind
	case Congruence:
		kind = congKind
	case Weak, Trace, Failure, K, Limited:
	default:
		return false, fmt.Errorf("engine: unknown relation %d", q.Rel)
	}
	if q.P == q.Q && q.Rel != Failure {
		return true, nil // every relation is reflexive
	}
	a, b := c.art(q.P), c.art(q.Q)
	if q.Rel == Failure {
		// ≡ is defined on restricted processes only. The inputs are checked
		// as the one-shot checker checks them: on the originals, since a
		// quotient drops the unreachable states and with them the evidence,
		// and before any quotient is derived.
		if err := a.failureModel(q.P); err != nil {
			return false, err
		}
		if err := b.failureModel(q.Q); err != nil {
			return false, err
		}
		// The records can settle the pair without a walk, so the joint
		// alphabet is checked here too.
		if err := failures.ValidateJoint(q.P, q.Q); err != nil {
			return false, err
		}
		if q.P == q.Q {
			return true, nil
		}
	}
	// Phase spans are flat and sequential — quotient, then solve — so a
	// traced query's span durations sum to roughly its wall time. Between
	// phases the context is polled again, since one phase can be a full
	// partition solve.
	tr := obs.TraceFrom(ctx)
	sp := tr.Start("quotient")
	minP, minQ, err := both(c.quotient, kind, a, b)
	sp.End(obs.A("kind", kinds[kind].name))
	if err != nil {
		return false, err
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	sp = tr.Start("solve")
	eq, rel, by, err := c.solve(ctx, q, kind, a, b, minP, minQ)
	sp.End(obs.A("relation", rel), obs.A("decided-by", by))
	if n, ok := pairDecisions[by]; ok && err == nil {
		n.Inc()
	}
	return eq, err
}

// solve decides q on the cached quotients minP and minQ of kind k of its
// processes, whose records are a and b. It names the relation and what
// decided the pair, for the solve span.
func (c *Checker) solve(ctx context.Context, q Query, k quotientKind, a, b *artifacts, minP, minQ *fsp.FSP) (eq bool, rel, by string, err error) {
	rule := core.NoRootRule
	switch q.Rel {
	case Simulation:
		eq, err = simulation.Equivalent(minP, minQ)
		return eq, "simulation", "simulation", err
	case Strong:
		rel, rule = "strong", core.SameRootLoop
	case Weak:
		rel = "weak"
	case Congruence:
		rel, rule = "congruence", core.SameRootCycle
	case Trace:
		rel = "trace"
	case Failure:
		rel = "failure"
	case K:
		rel = "k"
	case Limited:
		rel = "limited"
	}
	// The quotients are coarsest, so their signature records settle most
	// pairs without a solve (core.DecideSignatures). Trace, Failure, K and
	// Limited read the ≈-records, and only an equivalent verdict carries
	// over: ≈ refines ≡, ≈_k and ≃_k.
	sigP, sigQ, err := both(c.signature, k, a, b)
	if err != nil {
		return false, rel, "", err
	}
	exact := q.Rel == Strong || q.Rel == Weak || q.Rel == Congruence
	if eq, d := core.DecideSignatures(sigP, sigQ, rule); d != core.Undecided && (exact || eq) {
		return eq, rel, d.String(), nil
	}
	// A pair the records leave open is decided on the two quotients,
	// each ~, ≈ or ≈ᶜ to its process as the relation needs.
	switch q.Rel {
	case Trace, K:
		// kequiv builds the ≈_{k-1} partition of the union of the
		// ≈-quotients (for trace just the extension partition) and runs
		// one subset walk from the two roots.
		k := q.K
		if q.Rel == Trace {
			k = 1
		}
		eq, err = kequiv.Equivalent(ctx, minP, minQ, k)
		return eq, rel, "kequiv", err
	case Failure:
		// failures(p) = failures(min≈(p)), so the subset walk runs on the
		// two reduced quotients.
		eq, _, err = failures.Equivalent(ctx, minP, minQ)
		return eq, rel, "failures", err
	case Strong:
		eq, err = core.StrongEquivalent(minP, minQ)
	case Weak:
		eq, err = core.WeakEquivalent(minP, minQ)
	case Limited:
		eq, err = core.LimitedEquivalent(minP, minQ, q.K)
	default:
		eq, err = core.ObservationCongruent(minP, minQ)
	}
	return eq, rel, "partition", err
}

// both applies one memoized accessor of kind k to the two records of a
// pair.
func both[T any](get func(*artifacts, quotientKind) (T, error), k quotientKind, a, b *artifacts) (T, T, error) {
	x, err := get(a, k)
	if err != nil {
		var zero T
		return zero, zero, err
	}
	y, err := get(b, k)
	return x, y, err
}
