package fsp

import (
	"cmp"
	"math/bits"
	"slices"
)

// This file defines structural identity of FSPs: two processes are
// structurally equal when they have the same states, the same start, and
// state for state the same named arcs and extension variables — regardless
// of how their alphabets or variable tables happened to intern those names.
// The engine's artifact cache uses Fingerprint as a hash key and
// StructuralEqual to confirm, so parsing the same process text twice (two
// distinct *FSP pointers) still shares one set of cached artifacts.

// canonOrder walks a process in its interning-independent order: each
// state's arcs by (action name, target) and its extension variables by
// name. The per-state arc order of an FSP is (Action id, To), and ids
// depend on interning order; ranking the alphabet and the variable table
// by name once per call lets the walk reorder whole per-action runs
// (already target-sorted) instead of sorting arcs by name.
type canonOrder struct {
	f       *FSP
	actRank []int32  // actRank[act] = rank of act's name among all actions
	vars    []VarID  // variable ids in name order
	runAt   [][]Arc  // runAt[rank] = the current state's run of that action
	present []uint64 // ranks with a run in the current state, as a bitset
	runs    [][]Arc  // scratch for runsOf
	names   []string // scratch for extNames
}

func newCanonOrder(f *FSP) *canonOrder {
	names := f.alphabet.names
	byName := make([]int32, len(names))
	for i := range byName {
		byName[i] = int32(i)
	}
	slices.SortFunc(byName, func(a, b int32) int { return cmp.Compare(names[a], names[b]) })
	actRank := make([]int32, len(names))
	for r, act := range byName {
		actRank[act] = int32(r)
	}
	vars := make([]VarID, len(f.vars.names))
	for i := range vars {
		vars[i] = VarID(i)
	}
	slices.SortFunc(vars, func(a, b VarID) int { return cmp.Compare(f.vars.names[a], f.vars.names[b]) })
	return &canonOrder{
		f:       f,
		actRank: actRank,
		vars:    vars,
		runAt:   make([][]Arc, len(names)),
		present: make([]uint64, (len(names)+63)/64),
		runs:    make([][]Arc, 0, len(names)),
		names:   make([]string, 0, len(vars)),
	}
}

// runsOf returns s's arcs as per-action runs in action-name order; each
// run is target-sorted. The result is scratch, valid until the next call.
func (c *canonOrder) runsOf(s State) [][]Arc {
	arcs := c.f.adj[s]
	for i := 0; i < len(arcs); {
		j := i + 1
		for j < len(arcs) && arcs[j].Act == arcs[i].Act {
			j++
		}
		r := c.actRank[arcs[i].Act]
		c.runAt[r] = arcs[i:j]
		c.present[r>>6] |= 1 << (r & 63)
		i = j
	}
	c.runs = c.runs[:0]
	for i, w := range c.present {
		for w != 0 {
			r := i<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			c.runs = append(c.runs, c.runAt[r])
		}
		c.present[i] = 0
	}
	return c.runs
}

// extNames returns the extension variable names of s in name order. The
// result is scratch, valid until the next call.
func (c *canonOrder) extNames(s State) []string {
	e := c.f.ext[s]
	c.names = c.names[:0]
	for _, id := range c.vars {
		if e.Has(id) {
			c.names = append(c.names, c.f.vars.names[id])
		}
	}
	return c.names
}

// Fingerprint returns a structural hash of f: equal for structurally equal
// processes (see StructuralEqual), and invariant under the interning order
// of the alphabet and variable table. The process name is deliberately not
// hashed — renaming a process does not change what it is.
func Fingerprint(f *FSP) uint64 { return fingerprint(f, 0) }

// Fingerprint2 is a second structural hash over the same canonical walk,
// independent of Fingerprint by a seed perturbation. The persistent
// artifact store keys entries by Fingerprint and records Fingerprint2
// inside each entry as a collision guard: a different process that happens
// to collide on the 64-bit key is rejected on the second hash instead of
// yielding someone else's artifact.
func Fingerprint2(f *FSP) uint64 { return fingerprint(f, 0x9e3779b97f4a7c15) }

// fnv64a is an inline FNV-1a 64-bit hash. The fingerprints are persisted
// as store keys, so the byte stream fed to it must never change: the seed
// (when nonzero), then per field 8-byte little-endian integers and
// NUL-terminated names.
type fnv64a uint64

const (
	fnvOffset64 fnv64a = 14695981039346656037
	fnvPrime64  fnv64a = 1099511628211
)

func (h *fnv64a) word(v uint64) {
	x := *h
	for i := 0; i < 8; i++ {
		x = (x ^ fnv64a(byte(v>>(8*i)))) * fnvPrime64
	}
	*h = x
}

func (h *fnv64a) name(s string) {
	x := *h
	for i := 0; i < len(s); i++ {
		x = (x ^ fnv64a(s[i])) * fnvPrime64
	}
	*h = x * fnvPrime64 // the NUL terminator: x ^ 0 = x
}

func fingerprint(f *FSP, seed uint64) uint64 {
	h := fnvOffset64
	if seed != 0 {
		h.word(seed)
	}
	h.word(uint64(f.NumStates()))
	h.word(uint64(f.start))
	c := newCanonOrder(f)
	for s := range f.adj {
		h.word(uint64(len(f.adj[s])))
		for _, run := range c.runsOf(State(s)) {
			nm := f.alphabet.names[run[0].Act]
			for _, a := range run {
				h.name(nm)
				h.word(uint64(a.To))
			}
		}
		exts := c.extNames(State(s))
		h.word(uint64(len(exts)))
		for _, nm := range exts {
			h.name(nm)
		}
	}
	return uint64(h)
}

// StructuralEqual reports whether f and g are the same process up to
// interning order: same state count, same start state, and for every state
// the same set of (action name, target) arcs and the same extension
// variable names. Structurally equal processes are indistinguishable to
// every equivalence checker in this repository, so derived artifacts
// (quotients, indexes) are interchangeable.
func StructuralEqual(f, g *FSP) bool {
	if f == g {
		return true
	}
	if f.alphabet.Equal(g.alphabet) && f.vars.Equal(g.vars) {
		return storedEqual(f, g)
	}
	return canonEqual(f, g)
}

// storedEqual compares f and g as stored. It decides StructuralEqual when
// both intern the same names in the same order: ids then name the same
// actions and variables on both sides, and rows are (Act, To)-sorted.
func storedEqual(f, g *FSP) bool {
	if f.NumStates() != g.NumStates() || f.start != g.start || !slices.Equal(f.ext, g.ext) {
		return false
	}
	for s := range f.adj {
		if !slices.Equal(f.adj[s], g.adj[s]) {
			return false
		}
	}
	return true
}

// canonEqual decides StructuralEqual by walking both processes in their
// interning-independent order.
func canonEqual(f, g *FSP) bool {
	if f.NumStates() != g.NumStates() || f.start != g.start {
		return false
	}
	fc, gc := newCanonOrder(f), newCanonOrder(g)
	for s := range f.adj {
		if len(f.adj[s]) != len(g.adj[s]) {
			return false
		}
		fr, gr := fc.runsOf(State(s)), gc.runsOf(State(s))
		if len(fr) != len(gr) {
			return false
		}
		for i := range fr {
			if len(fr[i]) != len(gr[i]) || f.alphabet.names[fr[i][0].Act] != g.alphabet.names[gr[i][0].Act] {
				return false
			}
			for j := range fr[i] {
				if fr[i][j].To != gr[i][j].To {
					return false
				}
			}
		}
		if !slices.Equal(fc.extNames(State(s)), gc.extNames(State(s))) {
			return false
		}
	}
	return true
}
