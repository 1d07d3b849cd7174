package core

import (
	"cmp"
	"hash/maphash"
	"math/bits"
	"slices"

	"ccs/internal/fsp"
)

// Signature records of coarsest quotients.
//
// The ~-, ≈- and ≈ᶜ-quotients of QuotientStrong, QuotientWeak and
// QuotientCongruence are coarsest: no two of their states are related. Two
// processes are therefore related iff the reachable parts of their
// quotients are isomorphic, and that isomorphism is unique, since it must
// send each state to the one state related to it. A Signature finds the
// one candidate bijection without looking at the pair, as signature-based
// bisimulation reduction does (Blom & Orzan, STTT 2005): it runs the naive
// refinement rounds of Lemma 3.2 on the reachable part, hashing action and
// variable names rather than ids, so values compare across processes.
//
// Isomorphic quotients get identical records whatever the hash does. So
// records that differ prove the quotients are not isomorphic, and equal
// records whose values are pairwise distinct pair the states off by
// value; one O(n + m) check of that pairing then settles the pair both
// ways. Hash collisions can only leave a pair undecided or propose a
// pairing the check rejects, never flip a verdict.
//
// The ≈- and ≈ᶜ-quotients are reduced: each is a function of the dense
// weak-closed quotient, so it is as canonical, and records work on it
// unchanged. The root's tau self-loop is kept out of the hashed structure,
// as two flags. QuotientCongruence adds the loop only when the start has
// a direct tau into its own class, so two ≈ᶜ processes can differ by a
// redundant loop when the root already lies on a tau cycle through another
// class (see weakQuotient). Without the loop an ≈ᶜ-quotient is its
// ≈-quotient, and the root rule of DecideSignatures compares what the
// loop stands for: whether the root lies on a tau cycle, which the reduced
// quotient shows as a self-loop or a tau arc to a class with a tau arc
// back.

// sigRoundFactor sets the round cap of a Signature: sigRoundFactor ·
// ⌈log₂(n+1)⌉ rounds for n reachable states. The cap depends on n alone,
// so isomorphic quotients hit it alike, and it keeps a record at
// O(m log n), the bound of the partition solve it replaces. Random
// quotients separate in a handful of rounds; a chain needs about one
// round per state, and a long one is left undecided.
const sigRoundFactor = 2

// sigSeed keys the name hashes. Records are compared only within one
// process, so a per-process seed is enough, and inputs cannot be built to
// collide on it.
var sigSeed = maphash.MakeSeed()

// Signature is the bisimulation-invariant record of the reachable part of
// a coarsest quotient (NewSignature). It is immutable and safe to share.
type Signature struct {
	f *fsp.FSP

	// counts[r] is the number of distinct values after round r.
	counts []int32
	// root is the start state's final value.
	root uint64
	// entries holds the reachable states with their final values, sorted
	// by value.
	entries []sigEntry

	// rootLoop reports a tau self-loop at the start; rootTwoCycle a tau
	// arc from the start to another state with a tau arc back.
	rootLoop, rootTwoCycle bool
	// capped reports that the rounds hit the cap before the values were
	// pairwise distinct.
	capped bool
}

type sigEntry struct {
	val   uint64
	state fsp.State
}

// NewSignature computes the record of f's reachable part. Round 0 hashes
// each state's set of extension-variable names. Round r+1 hashes a state's
// round-r value with the set of (action-name hash, successor's round-r
// value) pairs of its arcs, the root's tau self-loop aside; duplicates
// within an action run are dropped by stamping the successors' dense
// round-r ids, and the pairs are combined commutatively, so a round costs
// O(n + m) with no sort. The rounds stop when the number of distinct
// values stops growing, or at the cap.
func NewSignature(f *fsp.FSP) *Signature {
	start := f.Start()
	local := make([]int32, f.NumStates())
	for i := range local {
		local[i] = -1
	}
	order := []fsp.State{start}
	local[start] = 0
	for i := 0; i < len(order); i++ {
		for _, a := range f.Arcs(order[i]) {
			if local[a.To] < 0 {
				local[a.To] = int32(len(order))
				order = append(order, a.To)
			}
		}
	}
	n := len(order)

	actHash := make([]uint64, f.Alphabet().Len())
	for act := range actHash {
		actHash[act] = maphash.String(sigSeed, f.Alphabet().Name(fsp.Action(act)))
	}
	varHash := make([]uint64, f.Vars().Len())
	for id := range varHash {
		varHash[id] = maphash.String(sigSeed, f.Vars().Name(fsp.VarID(id)))
	}

	val := make([]uint64, n)
	for i, s := range order {
		var h uint64
		for e := uint64(f.Ext(s)); e != 0; e &= e - 1 {
			h += mix64(varHash[bits.TrailingZeros64(e)])
		}
		val[i] = mix64(h ^ 0x6a09e667f3bcc909)
	}
	sig := &Signature{f: f}
	sig.rootLoop, sig.rootTwoCycle = rootTauFlags(f)

	var tab valueTable
	ids := make([]int32, n)
	count := tab.assign(val, ids)
	sig.counts = append(sig.counts, int32(count))
	next := make([]uint64, n)
	stamp := make([]int, n)
	epoch := 0
	for round, limit := 0, sigRoundFactor*bits.Len(uint(n)); ; round++ {
		if round == limit {
			sig.capped = count < n
			break
		}
		for i, s := range order {
			var set uint64
			arcs := f.Arcs(s)
			for k := 0; k < len(arcs); {
				act := arcs[k].Act
				epoch++
				for ; k < len(arcs) && arcs[k].Act == act; k++ {
					t := arcs[k].To
					if i == 0 && act == fsp.Tau && t == start {
						continue
					}
					j := local[t]
					if stamp[ids[j]] == epoch {
						continue
					}
					stamp[ids[j]] = epoch
					set += mix64(actHash[act] + 0x9e3779b97f4a7c15*val[j])
				}
			}
			next[i] = mix64(val[i] ^ mix64(set+0xbb67ae8584caa73b))
		}
		val, next = next, val
		c := tab.assign(val, ids)
		sig.counts = append(sig.counts, int32(c))
		if c <= count {
			break
		}
		count = c
	}

	sig.root = val[0]
	sig.entries = make([]sigEntry, n)
	for i, s := range order {
		sig.entries[i] = sigEntry{val[i], s}
	}
	slices.SortFunc(sig.entries, func(a, b sigEntry) int { return cmp.Compare(a.val, b.val) })
	return sig
}

// rootTauFlags reports whether f's start has a tau self-loop, and whether
// it has a tau arc to another state with a tau arc back.
func rootTauFlags(f *fsp.FSP) (loop, twoCycle bool) {
	r := f.Start()
	for _, a := range f.Arcs(r) {
		if a.Act != fsp.Tau {
			break
		}
		if a.To == r {
			loop = true
		} else if f.HasArc(a.To, fsp.Tau, r) {
			twoCycle = true
		}
	}
	return loop, twoCycle
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// valueTable assigns dense ids to the values of one round by open
// addressing, reusing its slots from round to round.
type valueTable struct {
	slots []int32 // dense id + 1 per slot; 0 is empty
	rep   []int32 // rep[id] is a state holding value id
}

// assign writes the dense id of val[i] to ids[i] and returns the number
// of distinct values.
func (t *valueTable) assign(val []uint64, ids []int32) int {
	if size := 2 << bits.Len(uint(len(val))); len(t.slots) != size {
		t.slots = make([]int32, size)
	} else {
		clear(t.slots)
	}
	t.rep = t.rep[:0]
	mask := uint64(len(t.slots) - 1)
	for i, v := range val {
		for h := v & mask; ; h = (h + 1) & mask {
			d := t.slots[h]
			if d == 0 {
				t.rep = append(t.rep, int32(i))
				t.slots[h] = int32(len(t.rep))
				ids[i] = int32(len(t.rep) - 1)
				break
			}
			if val[t.rep[d-1]] == v {
				ids[i] = d - 1
				break
			}
		}
	}
	return len(t.rep)
}

// RootRule is what a pair's roots must meet beyond isomorphic quotients:
// the one place where ~, ≈ and ≈ᶜ differ.
type RootRule int

const (
	// SameRootLoop is the rule for ~-quotients: a root tau self-loop is a
	// strong move, so both roots have one or neither does.
	SameRootLoop RootRule = iota
	// NoRootRule is the rule for ≈-quotients, which have no tau self-loops.
	NoRootRule
	// SameRootCycle is the rule for ≈ᶜ-quotients: both roots lie on a tau
	// cycle (a self-loop or a 2-cycle; a quotient keeps every tau arc
	// inside a class-level tau-SCC, so a root on a longer cycle is on a
	// 2-cycle too) or neither does. A root is its own nonempty tau
	// derivative exactly then, and the quotient's other tau derivatives
	// of the root all lie in other classes.
	SameRootCycle
)

// Decision is how DecideSignatures settled a pair.
type Decision int

const (
	// Undecided means a record was capped or repeats a value: the caller
	// must run the partition solve.
	Undecided Decision = iota
	// BySignature means the records differ or the roots fail the rule.
	BySignature
	// ByIsomorphism means the one candidate bijection was checked.
	ByIsomorphism
)

func (d Decision) String() string {
	switch d {
	case BySignature:
		return "signature"
	case ByIsomorphism:
		return "isomorphism"
	default:
		return "undecided"
	}
}

// DecideSignatures decides whether the processes behind two coarsest
// quotients are related, from the quotients' records a and b: ~ for
// ~-quotients under SameRootLoop, ≈ for ≈-quotients under NoRootRule, ≈ᶜ
// for ≈ᶜ-quotients under SameRootCycle. The verdict is exact unless the
// Decision is Undecided.
func DecideSignatures(a, b *Signature, rule RootRule) (bool, Decision) {
	if a.root != b.root || !slices.Equal(a.counts, b.counts) || len(a.entries) != len(b.entries) {
		return false, BySignature
	}
	for i := range a.entries {
		if a.entries[i].val != b.entries[i].val {
			return false, BySignature
		}
	}
	switch rule {
	case SameRootLoop:
		if a.rootLoop != b.rootLoop {
			return false, BySignature
		}
	case SameRootCycle:
		if a.onTauCycle() != b.onTauCycle() {
			return false, BySignature
		}
	}
	if a.undecided() || b.undecided() {
		return false, Undecided
	}
	return isomorphic(a, b), ByIsomorphism
}

// onTauCycle reports whether the root lies on a tau cycle.
func (s *Signature) onTauCycle() bool { return s.rootLoop || s.rootTwoCycle }

// undecided reports a record whose values do not single out every state.
func (s *Signature) undecided() bool {
	return s.capped || int(s.counts[len(s.counts)-1]) < len(s.entries)
}

// isomorphic reports whether pairing the i-th entries of a and b is an
// isomorphism of the two reachable parts that maps root to root, matching
// action and variable names, the roots' tau self-loops aside. Both
// records have pairwise distinct values. Each pair of rows is compared by
// action run: g's row is indexed by action once, and the targets of the
// matching run are stamped, so the check is O(n + m) plus the alphabets.
func isomorphic(a, b *Signature) bool {
	f, g := a.f, b.f
	phi := make([]fsp.State, f.NumStates())
	for i, e := range a.entries {
		phi[e.state] = b.entries[i].state
	}
	if phi[f.Start()] != g.Start() {
		return false
	}
	act := make([]fsp.Action, f.Alphabet().Len())
	for x := range act {
		y, ok := g.Alphabet().Lookup(f.Alphabet().Name(fsp.Action(x)))
		if !ok {
			y = -1
		}
		act[x] = y
	}
	vars := make([]int, f.Vars().Len())
	for x := range vars {
		y, ok := g.Vars().Lookup(f.Vars().Name(fsp.VarID(x)))
		if !ok {
			y = -1
		}
		vars[x] = int(y)
	}
	runLo := make([]int, g.Alphabet().Len())
	runHi := make([]int, g.Alphabet().Len())
	runRow := make([]int, g.Alphabet().Len())
	mark := make([]int, g.NumStates())
	epoch := 0
	for row, e := range a.entries {
		s, t := e.state, phi[e.state]
		var ext uint64
		for x := uint64(f.Ext(s)); x != 0; x &= x - 1 {
			y := vars[bits.TrailingZeros64(x)]
			if y < 0 {
				return false
			}
			ext |= 1 << uint(y)
		}
		if ext != uint64(g.Ext(t)) {
			return false
		}
		farcs, garcs := f.Arcs(s), g.Arcs(t)
		nf, ng := len(farcs), len(garcs)
		if s == f.Start() && a.rootLoop {
			nf--
		}
		if t == g.Start() && b.rootLoop {
			ng--
		}
		if nf != ng {
			return false
		}
		for k := 0; k < len(garcs); {
			y, lo := garcs[k].Act, k
			for k < len(garcs) && garcs[k].Act == y {
				k++
			}
			runLo[y], runHi[y], runRow[y] = lo, k, row+1
		}
		for k := 0; k < len(farcs); {
			x, lo := farcs[k].Act, k
			for k < len(farcs) && farcs[k].Act == x {
				k++
			}
			epoch++
			if y := act[x]; y >= 0 && runRow[y] == row+1 {
				for _, ga := range garcs[runLo[y]:runHi[y]] {
					mark[ga.To] = epoch
				}
			}
			for _, fa := range farcs[lo:k] {
				if x == fsp.Tau && fa.To == s && s == f.Start() {
					continue
				}
				if mark[phi[fa.To]] != epoch {
					return false
				}
			}
		}
	}
	return true
}
