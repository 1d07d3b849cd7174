// Two-place buffer: the canonical CCS composition exercise, using the
// composition and restriction operators that Section 6 of the paper
// proposes for extended star expressions.
//
//	CellA = in · mid' · CellA        (accept on "in", hand over on "mid")
//	CellB = mid · out · CellB        (take over, emit on "out")
//	Impl  = (CellA | CellB) \ {mid}  (composition, then restriction)
//	Spec  = two-place FIFO over {in, out}
//
// The handshake on mid becomes a tau; observationally the implementation
// is the specification: Impl ≈ Spec — checked in polynomial time per
// Theorem 4.1(a).
//
// Run with: go run ./examples/buffer
package main

import (
	"fmt"
	"log"

	"ccs"
	"ccs/internal/core"
	"ccs/internal/fsp"
)

func buildCellA() *fsp.FSP {
	b := fsp.NewBuilder("CellA")
	b.AddStates(2)
	b.ArcName(0, "in", 1)
	b.ArcName(1, "mid'", 0)
	return b.MustBuild()
}

func buildCellB() *fsp.FSP {
	b := fsp.NewBuilder("CellB")
	b.AddStates(2)
	b.ArcName(0, "mid", 1)
	b.ArcName(1, "out", 0)
	return b.MustBuild()
}

func buildSpec() *fsp.FSP {
	b := fsp.NewBuilder("Buf2")
	b.AddStates(3)
	b.ArcName(0, "in", 1)
	b.ArcName(1, "in", 2)
	b.ArcName(2, "out", 1)
	b.ArcName(1, "out", 0)
	return b.MustBuild()
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cellA, cellB, spec := buildCellA(), buildCellB(), buildSpec()

	composed, err := ccs.Compose(cellA, cellB)
	if err != nil {
		return err
	}
	impl, err := ccs.Restrict(composed, "mid")
	if err != nil {
		return err
	}
	fmt.Printf("CellA | CellB: %d states, %d transitions\n", composed.NumStates(), composed.NumTransitions())
	fmt.Printf("(CellA|CellB)\\{mid}: %d states, %d transitions (handshake is now tau)\n",
		impl.NumStates(), impl.NumTransitions())

	ok, err := ccs.ObservationallyEquivalent(impl, spec)
	if err != nil {
		return err
	}
	fmt.Printf("\nImpl ≈ Buf2 spec: %v\n", ok)

	strong, err := ccs.StronglyEquivalent(impl, spec)
	if err != nil {
		return err
	}
	fmt.Printf("Impl ~ Buf2 spec: %v (the internal transfer is visible to ~)\n", strong)

	// Minimizing the implementation modulo ≈ recovers the 3-state spec.
	min, _, err := core.QuotientWeak(impl)
	if err != nil {
		return err
	}
	fmt.Printf("\nImpl/≈: %d states (spec has %d)\n", min.NumStates(), spec.NumStates())

	// A misconnected variant: CellB listens on the wrong channel, so no
	// handshake ever happens and the pipeline deadlocks after one "in".
	badB := func() *fsp.FSP {
		b := fsp.NewBuilder("BadB")
		b.AddStates(2)
		b.ArcName(0, "wrong", 1)
		b.ArcName(1, "out", 0)
		return b.MustBuild()
	}()
	badComposed, err := ccs.Compose(cellA, badB)
	if err != nil {
		return err
	}
	bad, err := ccs.Restrict(badComposed, "mid", "wrong")
	if err != nil {
		return err
	}
	okBad, err := ccs.ObservationallyEquivalent(bad, spec)
	if err != nil {
		return err
	}
	fmt.Printf("\nmiswired pipeline ≈ spec: %v\n", okBad)
	if !okBad {
		phi, err := ccs.ExplainWeak(spec, bad)
		if err != nil {
			return err
		}
		fmt.Printf("spec satisfies, miswired does not: %s\n", phi)
	}
	return nil
}
