package core

import (
	"slices"

	"ccs/internal/fsp"
)

// SameRecord reports whether two signature records agree on everything but
// the process and its state numbers.
func SameRecord(a, b *Signature) bool {
	if a.root != b.root || !slices.Equal(a.counts, b.counts) || len(a.entries) != len(b.entries) ||
		a.rootLoop != b.rootLoop || a.rootTwoCycle != b.rootTwoCycle || a.capped != b.capped {
		return false
	}
	for i := range a.entries {
		if a.entries[i].val != b.entries[i].val {
			return false
		}
	}
	return true
}

// Capped reports whether s stopped at the round cap.
func Capped(s *Signature) bool { return s.capped }

// Forged returns b's record with a's values, its i-th state being pair of
// a's i-th state: the two records then agree, so DecideSignatures must
// check pair as an isomorphism.
func Forged(a, b *Signature, pair func(fsp.State) fsp.State) *Signature {
	c := *b
	c.counts, c.root, c.capped = a.counts, a.root, a.capped
	c.entries = make([]sigEntry, len(a.entries))
	for i, e := range a.entries {
		c.entries[i] = sigEntry{e.val, pair(e.state)}
	}
	return &c
}

// WeakPaths reads ccs_core_weak_partitions_total by path.
func WeakPaths() (rounds, strong, saturation int64) {
	return byRounds.Value(), byStrong.Value(), bySaturation.Value()
}

// DenseQuotientWeak and DenseQuotientCongruence are the dense weak-closed
// quotients the reduced ones replaced, derived by the same partition.
func DenseQuotientWeak(f *fsp.FSP) (*fsp.FSP, error) { return denseQuotient(f, "/≈", false) }

func DenseQuotientCongruence(f *fsp.FSP) (*fsp.FSP, error) { return denseQuotient(f, "/≈ᶜ", true) }
