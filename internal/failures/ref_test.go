package failures

import (
	"fmt"
	"slices"
	"sort"

	"ccs/internal/fsp"
)

// This file keeps the three hand-written BFS walks that preceded the
// shared subset-pair walk of internal/automata, as references for the
// differential test and the fuzz target. Each keys its visited pairs by
// the bytes of sorted state lists and steps through a map and a sort; each
// also returns the number of pairs it enqueued.

// refStep advances a closure-closed derivative set by one observable
// action: the union of the members' weak destination runs, sorted.
func refStep(sem *semantics, set []fsp.State, sigma fsp.Action) []fsp.State {
	l := int32(sigma - 1)
	mark := map[fsp.State]struct{}{}
	for _, s := range set {
		for _, t := range sem.idx.Dests(int32(s), l) {
			mark[fsp.State(t)] = struct{}{}
		}
	}
	out := make([]fsp.State, 0, len(mark))
	for s := range mark {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func refKey(set []fsp.State) string {
	buf := make([]byte, 0, 4*len(set))
	for _, s := range set {
		buf = append(buf, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return string(buf)
}

func refRefusals(sem *semantics, set []fsp.State) []RefusalSet {
	members := make([]int32, len(set))
	for i, s := range set {
		members[i] = int32(s)
	}
	return sem.maxRefusals(members)
}

type refNode struct {
	sa, sb []fsp.State
	parent int
	act    fsp.Action
}

func refTrace(queue []refNode, i int) []fsp.Action {
	var rev []fsp.Action
	for queue[i].parent >= 0 {
		rev = append(rev, queue[i].act)
		i = queue[i].parent
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// refHarmonize checks both processes and, when their alphabets differ,
// returns their disjoint union with q's state shifted into it.
func refHarmonize(f *fsp.FSP, p fsp.State, g *fsp.FSP, q fsp.State) (*fsp.FSP, fsp.State, *fsp.FSP, fsp.State, error) {
	if err := checkRestricted(f); err != nil {
		return nil, 0, nil, 0, err
	}
	if err := checkRestricted(g); err != nil {
		return nil, 0, nil, 0, err
	}
	if f.Alphabet().Equal(g.Alphabet()) {
		return f, p, g, q, nil
	}
	u, off, err := fsp.DisjointUnion(f, g)
	if err != nil {
		return nil, 0, nil, 0, fmt.Errorf("failures: %w", err)
	}
	return u, p, u, off + q, nil
}

// refEquivalentStates is the reference ≡ walk.
func refEquivalentStates(f *fsp.FSP, p fsp.State, g *fsp.FSP, q fsp.State) (bool, *Witness, int, error) {
	f, p, g, q, err := refHarmonize(f, p, g, q)
	if err != nil {
		return false, nil, 0, err
	}
	semF, semG := newSemantics(f), newSemantics(g)
	seen := map[string]bool{}
	queue := []refNode{{sa: semF.clo.Of(p), sb: semG.clo.Of(q), parent: -1}}
	seen[refKey(queue[0].sa)+"|"+refKey(queue[0].sb)] = true
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		ra := refRefusals(semF, cur.sa)
		rb := refRefusals(semG, cur.sb)
		if !slices.Equal(ra, rb) {
			w := &Witness{Failure: Failure{Trace: refTrace(queue, head)}, Alphabet: f.Alphabet()}
			w.refusalFrom(ra, rb)
			return false, w, len(queue), nil
		}
		for _, sigma := range f.Alphabet().Observable() {
			na := refStep(semF, cur.sa, sigma)
			nb := refStep(semG, cur.sb, sigma)
			if len(na) == 0 && len(nb) == 0 {
				continue
			}
			if len(na) == 0 || len(nb) == 0 {
				return false, &Witness{
					Failure:  Failure{Trace: append(refTrace(queue, head), sigma)},
					InFirst:  len(na) != 0,
					Alphabet: f.Alphabet(),
				}, len(queue), nil
			}
			k := refKey(na) + "|" + refKey(nb)
			if !seen[k] {
				seen[k] = true
				queue = append(queue, refNode{sa: na, sb: nb, parent: head, act: sigma})
			}
		}
	}
	return true, nil, len(queue), nil
}

// refCompletedTraceEquivalentStates is the reference completed-trace walk.
func refCompletedTraceEquivalentStates(f *fsp.FSP, p fsp.State, g *fsp.FSP, q fsp.State) (bool, *Witness, int, error) {
	f, p, g, q, err := refHarmonize(f, p, g, q)
	if err != nil {
		return false, nil, 0, err
	}
	semF, semG := newSemantics(f), newSemantics(g)
	hasDead := func(sem *semantics, set []fsp.State) bool {
		for _, s := range set {
			if sem.weakInitials[s] == 0 {
				return true
			}
		}
		return false
	}
	seen := map[string]bool{}
	queue := []refNode{{sa: semF.clo.Of(p), sb: semG.clo.Of(q), parent: -1}}
	seen[refKey(queue[0].sa)+"|"+refKey(queue[0].sb)] = true
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		deadA := hasDead(semF, cur.sa)
		deadB := hasDead(semG, cur.sb)
		if deadA != deadB {
			return false, &Witness{
				Failure:  Failure{Trace: refTrace(queue, head), Refusal: semF.full},
				InFirst:  deadA,
				Alphabet: f.Alphabet(),
			}, len(queue), nil
		}
		for _, sigma := range f.Alphabet().Observable() {
			na := refStep(semF, cur.sa, sigma)
			nb := refStep(semG, cur.sb, sigma)
			if len(na) == 0 && len(nb) == 0 {
				continue
			}
			if len(na) == 0 || len(nb) == 0 {
				return false, &Witness{
					Failure:  Failure{Trace: append(refTrace(queue, head), sigma)},
					InFirst:  len(na) != 0,
					Alphabet: f.Alphabet(),
				}, len(queue), nil
			}
			k := refKey(na) + "|" + refKey(nb)
			if !seen[k] {
				seen[k] = true
				queue = append(queue, refNode{sa: na, sb: nb, parent: head, act: sigma})
			}
		}
	}
	return true, nil, len(queue), nil
}

// refRefines is the reference refinement walk (sa is spec, sb impl).
func refRefines(spec *fsp.FSP, specStart fsp.State, impl *fsp.FSP, implStart fsp.State) (bool, *Witness, int, error) {
	spec, specStart, impl, implStart, err := refHarmonize(spec, specStart, impl, implStart)
	if err != nil {
		return false, nil, 0, err
	}
	semS, semI := newSemantics(spec), newSemantics(impl)
	seen := map[string]bool{}
	queue := []refNode{{sa: semS.clo.Of(specStart), sb: semI.clo.Of(implStart), parent: -1}}
	seen[refKey(queue[0].sa)+"|"+refKey(queue[0].sb)] = true
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		rs := refRefusals(semS, cur.sa)
		for _, ri := range refRefusals(semI, cur.sb) {
			if !within(ri, rs) {
				return false, &Witness{
					Failure:  Failure{Trace: refTrace(queue, head), Refusal: ri},
					Alphabet: spec.Alphabet(),
				}, len(queue), nil
			}
		}
		for _, sigma := range spec.Alphabet().Observable() {
			ni := refStep(semI, cur.sb, sigma)
			if len(ni) == 0 {
				continue
			}
			ns := refStep(semS, cur.sa, sigma)
			if len(ns) == 0 {
				return false, &Witness{
					Failure:  Failure{Trace: append(refTrace(queue, head), sigma)},
					Alphabet: spec.Alphabet(),
				}, len(queue), nil
			}
			k := refKey(ns) + "|" + refKey(ni)
			if !seen[k] {
				seen[k] = true
				queue = append(queue, refNode{sa: ns, sb: ni, parent: head, act: sigma})
			}
		}
	}
	return true, nil, len(queue), nil
}
