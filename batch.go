package ccs

import (
	"context"
	"fmt"

	"ccs/internal/engine"
)

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
