// Package engine provides a reusable, concurrent batch equivalence-checking
// engine on top of the single-shot algorithms in core, kequiv, failures and
// simulation.
//
// The two ideas are:
//
//   - Per-process artifact caching. Deciding p ≈ q by Theorem 4.1(a)
//     saturates and partitions from scratch on every call, even when the
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
//     (core.DecideSignatures). Only a pair the records leave open runs a
//     partition solve on the union of the two quotients; the P-hat index
//     of an ≈- or ≈ᶜ-quotient is then read off its own arcs
//     (lts.FromWeakClosed), with no tau-closure and no saturation. The one
//     exception is Failure, which runs on the originals so that the
//     restrictedness validation of the one-shot checker is preserved.
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
	"ccs/internal/lts"
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
// freshly derived quotient is spilled back. Signature records and P-hat
// indexes stay in memory. A nil st is the same as New.
func NewWithStore(st *store.Store) *Checker {
	return &Checker{
		st:     st,
		procs:  map[*fsp.FSP]*artifacts{},
		byHash: map[uint64][]*artifacts{},
	}
}

// Store returns the persistent tier, or nil for a memory-only Checker.
func (c *Checker) Store() *store.Store { return c.st }

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

	// sig is the signature record of a quotient (signature); hat is the
	// P-hat index of a weak-closed one (weakIndex). Only the records of
	// quotients derive them.
	sigOnce sync.Once
	sig     *core.Signature
	sigErr  error

	hatOnce sync.Once
	hat     *lts.Index
	hatErr  error

	strongOnce sync.Once
	strongMin  *fsp.FSP
	strongErr  error

	weakOnce sync.Once
	weakMin  *fsp.FSP
	weakErr  error

	congOnce sync.Once
	congMin  *fsp.FSP
	congErr  error
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

// signature returns the memoized signature record of q, which must be a
// quotient from StrongQuotient, WeakQuotient or CongruenceQuotient (see
// core.NewSignature). Like the P-hat index it is derived in memory and
// never spilled to the store.
func (c *Checker) signature(q *fsp.FSP) (*core.Signature, error) {
	a := c.art(q)
	amSig.req.Inc()
	a.sigOnce.Do(func() {
		defer derivationGuard(&a.sigErr)
		amSig.derived.Inc()
		a.sig = core.NewSignature(q)
	})
	return a.sig, a.sigErr
}

// weakIndex returns the memoized P-hat index of q, which must be
// weak-closed: a WeakQuotient or CongruenceQuotient output (see
// lts.FromWeakClosed). Only pairs the signature records leave open read
// it. The index is derived in memory in one O(n + m) pass and never
// spilled to the store — rebuilding it is cheaper than decoding it.
func (c *Checker) weakIndex(q *fsp.FSP) (*lts.Index, error) {
	a := c.art(q)
	amHat.req.Inc()
	a.hatOnce.Do(func() {
		defer derivationGuard(&a.hatErr)
		amHat.derived.Inc()
		a.hat, a.hatErr = lts.FromWeakClosed(q)
	})
	return a.hat, a.hatErr
}

// quotient is the common store-tier shape of the three quotient accessors:
// consult the store under kind, else derive and spill.
func (c *Checker) quotient(a *artifacts, kind store.Kind, am artMetrics, derive func() (*fsp.FSP, error)) (*fsp.FSP, error) {
	if c.st != nil {
		fp, fp2 := c.keys(a)
		if min, ok := c.st.GetFSP(fp, fp2, kind); ok {
			am.storeHit.Inc()
			return min, nil
		}
		am.derived.Inc()
		min, err := derive()
		if err == nil {
			c.st.PutFSP(fp, fp2, kind, min)
		}
		return min, err
	}
	am.derived.Inc()
	return derive()
}

// StrongQuotient returns the memoized canonical quotient of p modulo ~.
func (c *Checker) StrongQuotient(p *fsp.FSP) (*fsp.FSP, error) {
	a := c.art(p)
	amStrong.req.Inc()
	a.strongOnce.Do(func() {
		defer derivationGuard(&a.strongErr)
		a.strongMin, a.strongErr = c.quotient(a, store.KindStrongMin, amStrong, func() (*fsp.FSP, error) {
			min, _, err := core.QuotientStrong(p)
			return min, err
		})
	})
	return a.strongMin, a.strongErr
}

// WeakQuotient returns the memoized canonical quotient of p modulo ≈.
func (c *Checker) WeakQuotient(p *fsp.FSP) (*fsp.FSP, error) {
	a := c.art(p)
	amWeak.req.Inc()
	a.weakOnce.Do(func() {
		defer derivationGuard(&a.weakErr)
		a.weakMin, a.weakErr = c.quotient(a, store.KindWeakMin, amWeak, func() (*fsp.FSP, error) {
			min, _, err := core.QuotientWeak(p)
			return min, err
		})
	})
	return a.weakMin, a.weakErr
}

// CongruenceQuotient returns the memoized ≈ᶜ-minimal quotient of p
// (core.QuotientCongruence): one state per ≈-class with the root
// condition restored in place (a root tau self-loop when needed), sound
// to substitute for p inside any network context. The persistent tier
// stores it under KindCongMin, whose codec byte was bumped when the
// quotient went minimal so fresh-root-shaped entries from older stores
// decode as cold misses.
func (c *Checker) CongruenceQuotient(p *fsp.FSP) (*fsp.FSP, error) {
	a := c.art(p)
	amCong.req.Inc()
	a.congOnce.Do(func() {
		defer derivationGuard(&a.congErr)
		a.congMin, a.congErr = c.quotient(a, store.KindCongMin, amCong, func() (*fsp.FSP, error) {
			min, _, err := core.QuotientCongruence(p)
			return min, err
		})
	})
	return a.congMin, a.congErr
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
// supported relation is reflexive.
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
	if q.P == q.Q {
		switch q.Rel {
		case Strong, Weak, Trace, Congruence, Simulation, K, Limited:
			return true, nil
		case Failure:
			// Reflexive too, but Equivalent validates restrictedness;
			// fall through so malformed inputs still error.
		default:
			return false, fmt.Errorf("engine: unknown relation %d", q.Rel)
		}
	}
	tr := obs.TraceFrom(ctx)
	if q.Rel == Failure {
		// Deliberately uncached: failures.Equivalent validates that both
		// inputs are restricted, and quotienting can erase the evidence
		// (a tau self-loop vanishes inside its class), so the check must
		// see the originals to keep the one-shot error contract.
		sp := tr.Start("solve")
		eq, _, err := failures.Equivalent(ctx, q.P, q.Q)
		sp.End(obs.A("relation", "failure"))
		return eq, err
	}
	// Every other relation is decided on the pair's cached quotients, by
	// transitivity: p ~ min~(p), and mutual similarity is likewise
	// invariant under ~-quotienting (Strong, Simulation); p ≈ᶜ min≈ᶜ(p)
	// (Congruence); p ≈ min≈(p), and ≈ refines ≈_k and ≃_k for every k
	// (Weak, Trace, K, Limited; Proposition 2.2.1).
	quotient, kind := c.WeakQuotient, "weak"
	switch q.Rel {
	case Strong, Simulation:
		quotient, kind = c.StrongQuotient, "strong"
	case Congruence:
		quotient, kind = c.CongruenceQuotient, "cong"
	case Weak, Trace, K, Limited:
	default:
		return false, fmt.Errorf("engine: unknown relation %d", q.Rel)
	}
	// Phase spans are flat and sequential — quotient, then solve — so a
	// traced query's span durations sum to roughly its wall time. Between
	// phases the context is polled again, since one phase can be a full
	// partition solve.
	sp := tr.Start("quotient")
	minP, minQ, err := both(quotient, q.P, q.Q)
	sp.End(obs.A("kind", kind))
	if err != nil {
		return false, err
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	sp = tr.Start("solve")
	eq, rel, by, err := c.solve(ctx, q, minP, minQ)
	sp.End(obs.A("relation", rel), obs.A("decided-by", by))
	if n, ok := pairDecisions[by]; ok && err == nil {
		n.Inc()
	}
	return eq, err
}

// solve decides q on the cached quotients minP and minQ of its processes.
// It names the relation and what decided the pair, for the solve span.
func (c *Checker) solve(ctx context.Context, q Query, minP, minQ *fsp.FSP) (eq bool, rel, by string, err error) {
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
	case K:
		rel = "k"
	case Limited:
		rel = "limited"
	}
	// The quotients are coarsest, so their signature records settle most
	// pairs without a solve (core.DecideSignatures). Trace, K and Limited
	// read the ≈-records, and only an equivalent verdict carries over: ≈
	// refines ≈_k and ≃_k (Proposition 2.2.1).
	sigP, sigQ, err := both(c.signature, minP, minQ)
	if err != nil {
		return false, rel, "", err
	}
	exact := q.Rel == Strong || q.Rel == Weak || q.Rel == Congruence
	if eq, d := core.DecideSignatures(sigP, sigQ, rule); d != core.Undecided && (exact || eq) {
		return eq, rel, d.String(), nil
	}
	switch q.Rel {
	case Strong:
		eq, err = core.StrongEquivalent(minP, minQ)
		return eq, rel, "partition", err
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
	}
	// Weak, Limited and Congruence run on the P-hat indexes of the
	// quotients. Saturation distributes over disjoint union (the
	// tau-closure of a union is the union of the tau-closures), so there
	// is no per-pair saturation, just one refinement on the union of two
	// cached indexes.
	idxP, idxQ, err := both(c.weakIndex, minP, minQ)
	if err != nil {
		return false, rel, "", err
	}
	switch q.Rel {
	case Weak:
		eq, err = core.StrongEquivalentIndexed(minP, minQ, idxP, idxQ)
	case Limited:
		eq, err = core.LimitedEquivalentSaturated(minP, minQ, idxP, idxQ, q.K)
	default:
		// The ≈ᶜ-quotients are weak-closed: one solve on the union of
		// their P-hat indexes gives ≈, and the root condition is read off
		// the two roots' own arcs.
		eq, err = core.ObservationCongruentClosed(minP, minQ, idxP, idxQ)
	}
	return eq, rel, "partition", err
}

// both applies one memoized accessor to the two processes of a pair.
func both[T any](get func(*fsp.FSP) (T, error), p, q *fsp.FSP) (T, T, error) {
	a, err := get(p)
	if err != nil {
		var zero T
		return zero, zero, err
	}
	b, err := get(q)
	return a, b, err
}
