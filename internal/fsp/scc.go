package fsp

// TauSCCs is the decomposition of a process's states into the strongly
// connected components of its tau arcs (TauSCC). States of one component
// reach each other by tau moves, so they share their tau-closure and every
// weak derivative.
type TauSCCs struct {
	// Of is the component of each state. Components are numbered sinks
	// first: a tau arc leads from a state of component c to c itself or
	// to a component numbered below c.
	Of []int32
	// Members lists the states component by component: component c holds
	// Members[Start[c]:Start[c+1]].
	Members []State
	Start   []int32
}

// Len returns the number of components.
func (c *TauSCCs) Len() int { return len(c.Start) - 1 }

// Cyclic reports whether component c carries a tau cycle: it has two or
// more states, or its one state has a tau self-loop.
func (c *TauSCCs) Cyclic(f *FSP, comp int32) bool {
	lo, hi := c.Start[comp], c.Start[comp+1]
	if hi-lo > 1 {
		return true
	}
	s := c.Members[lo]
	return f.HasArc(s, Tau, s)
}

// TauSCC computes the tau-SCCs of f with an iterative Tarjan in O(n + m).
// Tarjan completes a component only after every component it reaches, so
// numbering components in completion order numbers them sinks first.
func TauSCC(f *FSP) TauSCCs {
	n := f.NumStates()
	// index[s] is s's DFS number plus one (0 while unvisited); a visited
	// state is on the Tarjan stack until its component is assigned.
	index := make([]int32, n)
	low := make([]int32, n)
	of := make([]int32, n)
	for i := range of {
		of[i] = -1
	}
	out := TauSCCs{Of: of, Members: make([]State, 0, n), Start: make([]int32, 1, n+1)}
	var stack []State
	type frame struct {
		s   State
		pos int32 // next tau arc of s to follow
	}
	var calls []frame
	next := int32(0)
	visit := func(s State) {
		next++
		index[s], low[s] = next, next
		stack = append(stack, s)
		calls = append(calls, frame{s: s})
	}
	for root := 0; root < n; root++ {
		if index[root] != 0 {
			continue
		}
		visit(State(root))
		for len(calls) > 0 {
			top := &calls[len(calls)-1]
			s := top.s
			// Tau is action 0, so the tau arcs lead each sorted row.
			if arcs := f.adj[s]; int(top.pos) < len(arcs) && arcs[top.pos].Act == Tau {
				t := arcs[top.pos].To
				top.pos++
				if index[t] == 0 {
					visit(t)
				} else if of[t] < 0 {
					low[s] = min(low[s], index[t])
				}
				continue
			}
			calls = calls[:len(calls)-1]
			if len(calls) > 0 {
				p := calls[len(calls)-1].s
				low[p] = min(low[p], low[s])
			}
			if low[s] != index[s] {
				continue
			}
			comp := int32(out.Len())
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				of[m] = comp
				out.Members = append(out.Members, m)
				if m == s {
					break
				}
			}
			out.Start = append(out.Start, int32(len(out.Members)))
		}
	}
	return out
}
