package compose

// Succ enumerates the product successors of the state vector cur exactly
// as the network semantics dictates: interleavings of unhidden actions
// (tau always), pairwise complementary handshakes as tau, and — when the
// network carries a sync table — every firing of every sync vector. succ
// must be a scratch slice of length K; emit receives the dense label and
// the successor vector, which it must copy if retained (the slice is
// reused). Returning false from emit aborts the enumeration; Succ reports
// whether it ran to completion. It is the streamed reference the
// explorers' AppendSucc is tested against.
func (e *Expansion) Succ(cur, succ []int32, emit func(label int32, succ []int32) bool) bool {
	k := len(e.Trans)
	for i := 0; i < k; i++ {
		for _, a := range e.Trans[i][cur[i]] {
			// Interleaving: tau always; observables unless hidden.
			if a.Label == 0 || !e.Hidden[a.Label] {
				copy(succ, cur)
				succ[i] = a.To
				if !emit(a.Label, succ) {
					return false
				}
			}
			// Handshake with a later component: a.Label in i, its co-label
			// in j, jointly a tau. Scanning only j > i visits each
			// unordered pair once (the co-label's own iteration at j would
			// find the mirrored pair).
			if a.Label == 0 {
				continue
			}
			co := e.CoOf[a.Label]
			if co < 0 {
				continue
			}
			for _, j := range e.Holders[co] {
				if int(j) <= i {
					continue
				}
				for _, b := range Span(e.Trans[j][cur[j]], co) {
					copy(succ, cur)
					succ[i] = a.To
					succ[j] = b.To
					if !emit(0, succ) {
						return false
					}
				}
			}
		}
	}
	if len(e.Vectors) == 0 {
		return true
	}
	return e.emitVectors(cur, succ, make([]bool, k), emit)
}
