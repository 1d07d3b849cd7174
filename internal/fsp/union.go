package fsp

import "fmt"

// DisjointUnion combines two FSPs into one process whose state space is the
// disjoint union of theirs, with f's states first. The paper's equivalence
// notions compare states of a single FSP; to compare states across two
// processes "the proof is similar if p, q belong to two distinct observable
// FSPs having the same Sigma and V" (Lemma 3.1) — this combinator realizes
// exactly that reduction.
//
// Actions and variables are matched by name, so the operands may have been
// built with different tables as long as the names agree where used. The
// returned offset maps a state g-state s to offset+s in the union. The
// union's start state is f's start.
func DisjointUnion(f, g *FSP) (*FSP, State, error) {
	alpha := f.alphabet.Clone()
	vars := f.vars.Clone()
	b := NewBuilderWith(fmt.Sprintf("%s+%s", orFSP(f.name), orFSP(g.name)), alpha, vars)
	n, m := f.NumStates(), g.NumStates()
	b.AddStates(n + m)
	b.SetStart(f.start)
	offset := State(n)

	copyInto(b, f, 0)
	copyInto(b, g, offset)
	if b.Err() != nil {
		return nil, 0, b.Err()
	}
	out, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	return out, offset, nil
}

// copyInto replays src's transitions and extensions into b at the given
// state offset, translating actions and variables by name.
func copyInto(b *Builder, src *FSP, offset State) {
	for s := 0; s < src.NumStates(); s++ {
		for _, a := range src.adj[s] {
			b.ArcName(offset+State(s), src.alphabet.Name(a.Act), offset+a.To)
		}
		for _, id := range src.ext[s].IDs() {
			b.Extend(offset+State(s), src.vars.Name(id))
		}
	}
}

func orFSP(name string) string {
	if name == "" {
		return "fsp"
	}
	return name
}
