package ccs

import (
	"context"
	"fmt"
	"time"

	"ccs/internal/engine"
)

// Query is one batch equivalence question: are the start states of P and Q
// related by Rel? K is the bound for the approximant relations returned by
// ParseRelation ("kN", "limitedN") and is ignored otherwise.
//
// Deprecated: new code should describe queries as CheckRequest values
// (request.go) and run them with Checker.Do/DoAll — the same type the
// CLI and the HTTP server speak, with routes, timeouts and typed errors.
// Query remains for callers that already hold *Process values.
type Query struct {
	P, Q *Process
	Rel  Relation
	K    int
}

// BatchResult is the outcome of one batch Query, in input order.
//
// Deprecated: Checker.Do/DoAll return Report values, which add the route
// taken, counterexamples, and a typed error classification.
type BatchResult struct {
	// Equivalent is the verdict; meaningful only when Err is nil.
	Equivalent bool
	// Err reports a failed check — malformed input, an unknown relation,
	// or context cancellation before the query ran.
	Err error
	// Elapsed is the wall time the query took inside its worker.
	Elapsed time.Duration
}

// Checker is a reusable, concurrency-safe equivalence checker that caches
// per-process derived artifacts (the canonical ~/≈/≈ᶜ quotients, a
// signature record per quotient that settles most pairs without a
// partition solve, and the P-hat index of an ≈- or ≈ᶜ-quotient when a
// pair needs one), so repeated queries against the same *Process value
// skip re-derivation. Construct with NewChecker; methods may be called
// from multiple goroutines.
type Checker struct {
	e *engine.Checker
}

// NewChecker returns an empty batch checker.
func NewChecker() *Checker { return &Checker{e: engine.New()} }

// Check answers one query synchronously, populating the artifact cache as
// a side effect.
func (c *Checker) Check(ctx context.Context, p, q *Process, rel Relation, k int) (bool, error) {
	eq, err := relationToEngine(rel)
	if err != nil {
		return false, err
	}
	return c.e.Check(ctx, engine.Query{P: p, Q: q, Rel: eq, K: k})
}

// CheckAll fans the queries out over a pool of workers (workers <= 0
// selects GOMAXPROCS) and returns one result per query, in input order.
// Cancelling the context stops unstarted queries, which then report the
// context error.
func (c *Checker) CheckAll(ctx context.Context, queries []Query, workers int) []BatchResult {
	out := make([]BatchResult, len(queries))
	// Queries with an unmappable relation fail eagerly and never reach
	// the worker pool; origin maps the dispatched subset back to input
	// positions.
	var eqs []engine.Query
	var origin []int
	for i, q := range queries {
		rel, err := relationToEngine(q.Rel)
		if err != nil {
			out[i] = BatchResult{Err: err}
			continue
		}
		eqs = append(eqs, engine.Query{P: q.P, Q: q.Q, Rel: rel, K: q.K})
		origin = append(origin, i)
	}
	for _, r := range c.e.CheckAll(ctx, eqs, workers) {
		out[origin[r.Index]] = BatchResult{
			Equivalent: r.Equivalent,
			Err:        r.Err,
			Elapsed:    r.Elapsed,
		}
	}
	return out
}

// CheckAll is the convenience form of Checker.CheckAll with a fresh
// single-use checker: the cache still deduplicates derivation work across
// the given queries, but nothing is retained afterwards.
//
// Deprecated: prefer NewChecker().DoAll with CheckRequest values; this
// form remains for callers that already hold *Process values.
func CheckAll(ctx context.Context, queries []Query, workers int) []BatchResult {
	return NewChecker().CheckAll(ctx, queries, workers)
}

// PoolSize reports the worker-pool size CheckAll will use for a given
// workers request and query count (non-positive workers selects
// GOMAXPROCS, never more than one worker per query).
func PoolSize(workers, queries int) int { return engine.PoolSize(workers, queries) }

// relationToEngine maps the facade's Relation constants onto the engine's.
func relationToEngine(rel Relation) (engine.Relation, error) {
	switch rel {
	case Strong:
		return engine.Strong, nil
	case Weak:
		return engine.Weak, nil
	case Trace:
		return engine.Trace, nil
	case Failure:
		return engine.Failure, nil
	case Congruence:
		return engine.Congruence, nil
	case Simulation:
		return engine.Simulation, nil
	case relationK:
		return engine.K, nil
	case relationLimited:
		return engine.Limited, nil
	default:
		return 0, fmt.Errorf("ccs: unknown relation %d", rel)
	}
}
