package ccs_test

import (
	"math/rand"
	"testing"

	"ccs"
	"ccs/internal/core"
	"ccs/internal/expr"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/hml"
	"ccs/internal/kequiv"
)

// TestPipelineExpressionToVerdicts drives the full stack end to end on
// random expressions: parse -> representative -> interchange round trip ->
// quotient -> verdict consistency across modules.
func TestPipelineExpressionToVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 80; trial++ {
		e1 := gen.RandomExpr(rng, 1+rng.Intn(6), 2)
		e2 := gen.RandomExpr(rng, 1+rng.Intn(6), 2)

		// Expression-level and process-level answers must agree.
		exprEq, err := expr.CCSEquivalent(e1, e2)
		if err != nil {
			t.Fatal(err)
		}
		p1, err := ccs.FromExpression(e1.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", e1, err)
		}
		p2, err := ccs.FromExpression(e2.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", e2, err)
		}
		procEq, err := ccs.StronglyEquivalent(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		if exprEq != procEq {
			t.Fatalf("trial %d: expression verdict %v != process verdict %v for %q vs %q",
				trial, exprEq, procEq, e1, e2)
		}

		// Interchange format round trip preserves every equivalence.
		back, err := ccs.ParseProcessString(ccs.FormatProcess(p1))
		if err != nil {
			t.Fatal(err)
		}
		same, err := ccs.StronglyEquivalent(p1, back)
		if err != nil || !same {
			t.Fatalf("trial %d: IO round trip broke %q: %v %v", trial, e1, same, err)
		}

		// The strong quotient is a fixed point and preserves all verdicts.
		q1, err := ccs.MinimizeStrong(p1)
		if err != nil {
			t.Fatal(err)
		}
		qEq, err := ccs.StronglyEquivalent(q1, p2)
		if err != nil {
			t.Fatal(err)
		}
		if qEq != procEq {
			t.Fatalf("trial %d: quotient changed the verdict", trial)
		}

		// If strongly inequivalent, an HML formula must exist and
		// distinguish within the disjoint union.
		if !procEq {
			u, off, err := fsp.DisjointUnion(p1, p2)
			if err != nil {
				t.Fatal(err)
			}
			phi, err := hml.Distinguish(u, p1.Start(), off+p2.Start())
			if err != nil {
				t.Fatalf("trial %d: no formula for inequivalent pair: %v", trial, err)
			}
			if !hml.Satisfies(u, p1.Start(), phi) || hml.Satisfies(u, off+p2.Start(), phi) {
				t.Fatalf("trial %d: formula %s does not distinguish", trial, phi)
			}
		}
	}
}

// TestPipelineWeakConsistency checks the three independent routes to
// observational equivalence on random tau-ful processes: saturation+
// partitioning (core), the ≃_k fixed point (core/partition), and the ≈_k
// fixed point (kequiv).
func TestPipelineWeakConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 40; trial++ {
		f := gen.Random(rng, 2+rng.Intn(6), rng.Intn(14), 2, 0.4)

		weak, err := core.WeakPartition(f)
		if err != nil {
			t.Fatal(err)
		}
		lim, _, err := core.LimitedPartition(f, -1)
		if err != nil {
			t.Fatal(err)
		}
		kfix, _, err := kequiv.Partition(f, -1)
		if err != nil {
			t.Fatal(err)
		}
		if !weak.Equal(lim) || !weak.Equal(kfix) {
			t.Fatalf("trial %d: three routes to ≈ disagree:\nweak %v\nlim %v\nkfix %v\n%s",
				trial, weak.Blocks(), lim.Blocks(), kfix.Blocks(), fsp.FormatString(f))
		}
	}
}

// TestPipelineCompositionAlgebra checks algebraic laws of the Section 6
// operators up to observational equivalence: composition is commutative
// and associative (up to ≈), restriction distributes over unused names.
func TestPipelineCompositionAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 25; trial++ {
		a := gen.RandomRestricted(rng, 2+rng.Intn(3), rng.Intn(4), 2)
		b := gen.RandomRestricted(rng, 2+rng.Intn(3), rng.Intn(4), 2)
		c := gen.RandomRestricted(rng, 2, rng.Intn(3), 2)

		ab, err := ccs.Compose(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := ccs.Compose(b, a)
		if err != nil {
			t.Fatal(err)
		}
		comm, err := core.WeakEquivalent(ab, ba)
		if err != nil {
			t.Fatal(err)
		}
		if !comm {
			t.Fatalf("trial %d: composition not commutative up to ≈", trial)
		}

		abc1, err := ccs.Compose(ab, c)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := ccs.Compose(b, c)
		if err != nil {
			t.Fatal(err)
		}
		abc2, err := ccs.Compose(a, bc)
		if err != nil {
			t.Fatal(err)
		}
		assoc, err := core.WeakEquivalent(abc1, abc2)
		if err != nil {
			t.Fatal(err)
		}
		if !assoc {
			t.Fatalf("trial %d: composition not associative up to ≈", trial)
		}

		// Restricting a name no process uses is the identity up to ~.
		ra, err := ccs.Restrict(a, "unused")
		if err != nil {
			t.Fatal(err)
		}
		id, err := core.StrongEquivalent(a, ra)
		if err != nil {
			t.Fatal(err)
		}
		if !id {
			t.Fatalf("trial %d: restriction on an unused name changed the process", trial)
		}
	}
}
