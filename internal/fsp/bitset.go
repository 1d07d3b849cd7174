package fsp

import "math/bits"

// bitRow is a word-packed set of states over a fixed universe [0, n). It is
// the storage unit of the bitset tau-closure: one row per state, 64 states
// per word, so unions become word-wide ORs and enumeration a popcount scan.
type bitRow []uint64

// newBitRow returns an empty row over a universe of n states.
func newBitRow(n int) bitRow { return make(bitRow, (n+63)/64) }

// set adds s to the row.
func (r bitRow) set(s State) { r[uint(s)>>6] |= 1 << (uint(s) & 63) }

// has reports membership of s.
func (r bitRow) has(s State) bool { return r[uint(s)>>6]&(1<<(uint(s)&63)) != 0 }

// or unions o into r. The rows must be over the same universe.
func (r bitRow) or(o bitRow) {
	for i, w := range o {
		r[i] |= w
	}
}

// count returns the cardinality of the row.
func (r bitRow) count() int {
	c := 0
	for _, w := range r {
		c += bits.OnesCount64(w)
	}
	return c
}

// appendStates appends the members of r to dst in increasing order — bit
// order is state order, so no sort is needed — and returns the extended
// slice.
func (r bitRow) appendStates(dst []State) []State {
	for i, w := range r {
		base := State(i << 6)
		for w != 0 {
			dst = append(dst, base+State(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// states returns the members of r in increasing order.
func (r bitRow) states() []State {
	return r.appendStates(make([]State, 0, r.count()))
}
