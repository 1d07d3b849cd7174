package automata

import (
	"ccs/internal/lts"
	"ccs/internal/partition"
)

// Minimize returns the minimal complete DFA accepting the same language,
// considering only reachable states. It delegates to the relational coarsest
// partition solver, which on deterministic graphs specializes to Hopcroft's
// O(N log N) "process the smaller half" algorithm (Hopcroft 1971) — the
// technique the paper generalizes in Section 3.
func (d *DFA) Minimize() *DFA {
	return d.minimizeWith(partition.PaigeTarjanIndex)
}

func (d *DFA) minimizeWith(solve func(*lts.Index, []int32) *partition.Partition) *DFA {
	// Restrict to reachable states, renumbering densely.
	reach := d.Reachable()
	remap := make([]int32, d.numStates)
	var live int32
	for s := 0; s < d.numStates; s++ {
		if reach[s] {
			remap[s] = live
			live++
		} else {
			remap[s] = -1
		}
	}

	// The refinement instance is built straight into the CSR kernel:
	// anonymous dense labels (the DFA symbols), initial partition accepting
	// vs non-accepting.
	b := lts.NewBuilder(int(live), d.numSymbols)
	initial := make([]int32, live)
	hasAcc, hasRej := false, false
	for s := 0; s < d.numStates; s++ {
		if reach[s] && d.accept[s] {
			hasAcc = true
		}
		if reach[s] && !d.accept[s] {
			hasRej = true
		}
	}
	for s := 0; s < d.numStates; s++ {
		if !reach[s] {
			continue
		}
		blk := int32(0)
		if hasAcc && hasRej && !d.accept[s] {
			blk = 1
		}
		initial[remap[s]] = blk
		for sym := 0; sym < d.numSymbols; sym++ {
			b.Add(remap[s], int32(sym), remap[d.delta[s][sym]])
		}
	}
	p := solve(b.Build(), initial)

	out, err := NewDFA(p.NumBlocks(), d.numSymbols, p.Block(remap[d.start]))
	if err != nil {
		// p.NumBlocks() >= 1 whenever live >= 1; unreachable in practice.
		panic(err)
	}
	for s := 0; s < d.numStates; s++ {
		if !reach[s] {
			continue
		}
		b := p.Block(remap[s])
		out.accept[b] = d.accept[s]
		for sym := 0; sym < d.numSymbols; sym++ {
			out.delta[b][sym] = p.Block(remap[d.delta[s][sym]])
		}
	}
	return out
}
