package core

import (
	"math/bits"

	"ccs/internal/fsp"
	"ccs/internal/hashcons"
	"ccs/internal/obs"
	"ccs/internal/partition"
)

// The ≈-refinement kernel.
//
// Lemma 3.2's naive method, run on P-hat, splits a block by the blocks its
// states reach in one P-hat step: by τ* (a state's ε-set) and, per
// observable action σ, by τ*στ* (its σ-set). Round k of it is ≃_k
// (Definition 2.2.2) and its fixpoint is ≈. All states of one tau-SCC
// share both sets, so one pass over the tau-SCC DAG, sinks first, computes
// them per component as block bitsets: a component's ε-set is its own
// states' blocks plus its tau-successors' ε-sets, and its σ-set is the
// ε-sets of its σ-arcs' targets plus its tau-successors' σ-sets. Each
// state's next block is its (block, component sets) pair, interned in
// hashcons tables — the signature refinement of Blom & Orzan (STTT 2005) —
// so no closure, P-hat or saturated index is built.
//
// The path is chosen from the input alone. A process with no tau arc is
// partitioned by Paige–Tarjan on itself, since ≈ is ~ there. The rounds
// hand over to saturate-and-partition, seeded with their last partition,
// after sigRoundFactor·⌈log₂(n+1)⌉ rounds, the cap of NewSignature (a
// chain needs one round per state, each paying for the whole process),
// or when a round's bitsets would pass roundWordsFactor·(n + m) words:
// they take components × (1 + actions) × ⌈blocks/64⌉ words, quadratic on
// large tau-sparse processes and on alphabets that grow with the process.

// roundWordsFactor bounds the words of a round's bitsets, as a multiple of
// n + m.
const roundWordsFactor = 8

// weakPartitions counts ≈- and ≃_k-partition derivations by the path that
// derived them.
var weakPartitions = obs.Default().CounterVec("ccs_core_weak_partitions_total",
	"Observational-equivalence partition derivations, by path: rounds, strong (tau-free) or saturation (the fallback).", "by")

var (
	byRounds     = weakPartitions.With("rounds")
	byStrong     = weakPartitions.With("strong")
	bySaturation = weakPartitions.With("saturation")
)

// weakRounds runs the kernel's rounds on one process.
type weakRounds struct {
	f    *fsp.FSP
	scc  fsp.TauSCCs
	acts []fsp.Action // observable actions on some arc, in increasing order
	slot []int32      // slot[act] is act's index in acts, or -1

	// blk holds the current blocks, dense in order of first occurrence;
	// next is scratch for the round after.
	blk, next []int32
	nblk      int
	budget    int

	// sets holds, per component, its ε-set and then one σ-set per acts
	// entry, each words wide, over the blocks of blk. After a round that
	// changed nothing they describe the final partition's P-hat rows.
	sets  []uint64
	words int
	rows  *hashcons.Table[uint64] // the distinct component set rows
	sid   []int32                 // per component, its row's id in rows
	pairs *hashcons.Table[int32]  // (block, row id) → next block
}

func newWeakRounds(f *fsp.FSP) *weakRounds {
	n := f.NumStates()
	r := &weakRounds{
		f:      f,
		scc:    fsp.TauSCC(f),
		slot:   make([]int32, f.Alphabet().Len()),
		blk:    ExtInitial(f),
		next:   make([]int32, n),
		budget: roundWordsFactor * (n + f.NumTransitions()),
		pairs:  hashcons.New[int32](2, n),
	}
	for s := 0; s < n; s++ {
		for _, a := range f.Arcs(fsp.State(s)) {
			r.slot[a.Act] = 1
		}
	}
	for act := range r.slot {
		if r.slot[act] == 1 && fsp.Action(act) != fsp.Tau {
			r.slot[act] = int32(len(r.acts))
			r.acts = append(r.acts, fsp.Action(act))
		} else {
			r.slot[act] = -1
		}
	}
	for _, b := range r.blk {
		r.nblk = max(r.nblk, int(b)+1)
	}
	r.sid = make([]int32, r.scc.Len())
	return r
}

// run runs rounds until one changes nothing or k rounds have changed the
// partition (k < 0: no limit). It returns the number of rounds that
// changed it, and false when it stopped early at the round cap or the
// word budget; blk is ≃_rounds either way.
func (r *weakRounds) run(k int) (rounds int, done bool) {
	limit := sigRoundFactor * bits.Len(uint(r.f.NumStates()))
	for ; k < 0 || rounds < k; rounds++ {
		if rounds == limit {
			return rounds, false
		}
		changed, ok := r.step()
		if !ok {
			return rounds, false
		}
		if !changed {
			return rounds, true
		}
	}
	return rounds, true
}

// step runs one round: it fills the component sets over the current
// blocks and splits every block by them, reporting whether one split. It
// does nothing and reports !ok when the round's bitsets would pass the
// budget.
func (r *weakRounds) step() (changed, ok bool) {
	w := (r.nblk + 63) / 64
	stride := (1 + len(r.acts)) * w
	ncomp := r.scc.Len()
	if ncomp*stride > r.budget {
		return false, false
	}
	// The sets and the row table are reused from round to round and
	// regrown only when the blocks widen.
	r.words = w
	if cap(r.sets) < ncomp*stride {
		r.sets = make([]uint64, ncomp*stride)
	} else {
		r.sets = r.sets[:ncomp*stride]
		clear(r.sets)
	}
	if r.rows == nil {
		// A row per component at most.
		r.rows = hashcons.New[uint64](stride, ncomp)
	}
	r.rows.ResetStride(stride)
	f, of, sets := r.f, r.scc.Of, r.sets
	members := func(c int) []fsp.State { return r.scc.Members[r.scc.Start[c]:r.scc.Start[c+1]] }
	// ε-sets first: a σ-arc may lead to any component.
	for c := 0; c < ncomp; c++ {
		eps := sets[c*stride : c*stride+w]
		for _, s := range members(c) {
			b := r.blk[s]
			eps[b>>6] |= 1 << (b & 63)
			for _, a := range f.Arcs(s) {
				if a.Act != fsp.Tau {
					break
				}
				if d := int(of[a.To]); d != c {
					orWords(eps, sets[d*stride:d*stride+w])
				}
			}
		}
	}
	if len(r.acts) > 0 {
		for c := 0; c < ncomp; c++ {
			sigma := sets[c*stride+w : (c+1)*stride]
			for _, s := range members(c) {
				for _, a := range f.Arcs(s) {
					d := int(of[a.To])
					if a.Act == fsp.Tau {
						if d != c {
							orWords(sigma, sets[d*stride+w:(d+1)*stride])
						}
						continue
					}
					i := int(r.slot[a.Act]) * w
					orWords(sigma[i:i+w], sets[d*stride:d*stride+w])
				}
			}
		}
	}
	for c := range r.sid {
		r.sid[c], _ = r.rows.Intern(sets[c*stride : (c+1)*stride])
	}
	r.pairs.Reset()
	var key [2]int32
	for s, b := range r.blk {
		key[0], key[1] = b, r.sid[of[s]]
		r.next[s], _ = r.pairs.Intern(key[:])
	}
	if r.pairs.Len() == r.nblk {
		// Nothing split: the ids are the old ones, since both are dense
		// in order of first occurrence, so sets stays over blk.
		return false, true
	}
	r.blk, r.next = r.next, r.blk
	r.nblk = r.pairs.Len()
	return true, true
}

func orWords(dst, src []uint64) {
	for i, x := range src {
		dst[i] |= x
	}
}

// classRows reads the dense quotient's rows off the final round's sets,
// each class's from its representative's component.
func (r *weakRounds) classRows(reps []fsp.State) *classRows {
	stride := (1 + len(r.acts)) * r.words
	rows := newClassRows(len(reps), len(reps)*(1+len(r.acts)), len(reps)*stride)
	for _, rep := range reps {
		rows.newClass()
		sets := r.sets[int(r.scc.Of[rep])*stride:]
		for i := -1; i < len(r.acts); i++ {
			act := fsp.Tau
			if i >= 0 {
				act = r.acts[i]
			}
			for at, x := range sets[(1+i)*r.words : (2+i)*r.words] {
				rows.add(int32(at), x)
			}
			rows.endRun(act)
		}
	}
	return rows.done()
}

// weakPart is a derived ≈-partition with what a quotient reads its
// classes' P-hat rows from: the final round's sets when the rounds derived
// it, else the rows of an FSP read through the partition — f itself when
// f has no tau arc, its saturation after the fallback.
type weakPart struct {
	*partition.Partition
	r    *weakRounds
	rows *fsp.FSP
	eps  fsp.Action // rows' epsilon action, or -1 when rows has none
}

// weakPartition derives ≃_k of f by the kernel (k < 0: ≈) and, when
// k ≥ 0, the number of rounds that changed the partition. Asked for ≈
// without that count, it partitions a tau-free f by Paige–Tarjan on
// itself, and its fallback finishes by Paige–Tarjan on the saturation;
// for k ≥ 0 the fallback goes on with the naive rounds there.
func weakPartition(f *fsp.FSP, k int) (weakPart, int, error) {
	if err := fsp.CheckSaturable(f); err != nil {
		return weakPart{}, 0, err
	}
	if k < 0 && !hasTau(f) {
		byStrong.Inc()
		return weakPart{Partition: StrongPartition(f), rows: f, eps: -1}, 0, nil
	}
	r := newWeakRounds(f)
	rounds, done := r.run(k)
	if done {
		byRounds.Inc()
		return weakPart{Partition: partition.NewPartition(r.blk), r: r}, rounds, nil
	}
	bySaturation.Inc()
	sat, eps, err := fsp.Saturate(f)
	if err != nil {
		return weakPart{}, 0, err
	}
	p := weakPart{rows: sat, eps: eps}
	if k < 0 {
		p.Partition = partition.PaigeTarjanIndex(IndexOf(sat), r.blk)
		return p, 0, nil
	}
	var more int
	p.Partition, more = partition.RefineStepsIndex(IndexOf(sat), r.blk, k-rounds)
	return p, rounds + more, nil
}

// hasTau reports whether some state of f has a tau arc.
func hasTau(f *fsp.FSP) bool {
	for s := 0; s < f.NumStates(); s++ {
		// Tau is action 0, so a tau arc leads its sorted row.
		if arcs := f.Arcs(fsp.State(s)); len(arcs) > 0 && arcs[0].Act == fsp.Tau {
			return true
		}
	}
	return false
}
