// Package compose implements networks of communicating processes: the CCS
// parallel composition, restriction and relabeling operators of Section 6
// of Kanellakis & Smolka, as an n-ary Network with a single
// reachable-product explorer behind it. The binary p | q and p\L of the
// facade are its two- and one-component networks.
//
// The point of the package is scale. On a network of k components the
// composed state space is exponential in k, so the composed process must
// never be built carelessly: the explorer applies restriction inline (a
// pruned interleaving is never generated, let alone removed afterwards),
// interns only reachable product states (in a hashcons.Table, the table
// the otf game also keeps its visited pairs in), and can materialize the
// product either as an *fsp.FSP (for the quotient and saturation
// pipelines) or directly into the internal/lts CSR refinement index — no
// intermediate edge slices, no per-arc name interning — for callers that
// only need to partition, count or benchmark the product.
//
// Composition semantics are Milner's: components interleave on their
// (relabeled) actions, complementary actions — "a" in one component, "a'"
// in another — synchronize pairwise into a single tau move, and hiding a
// channel removes its unsynchronized interleavings while keeping the
// handshake taus ((P | Q)\L). Extensions of a product state are the union
// of the component extensions.
//
// On top of the pairwise handshake a Network may carry an explicit
// synchronization table (Sync) of n-way rendezvous vectors in the style of
// Arnold–Nivat synchronization algebras / CSP multiway rendezvous: each
// SyncRule names the actions that distinct components must jointly fire
// and the single label the joint step produces (tau or a visible action).
// The table is additive — interleavings and pairwise handshakes are
// unchanged — and the default (empty) table is exactly CCS, so networks
// without sync rules behave byte-for-byte as before. Quorum and broadcast
// steps of distributed protocols, which pairwise handshakes cannot
// express, become single product transitions.
//
// The payoff used by internal/engine is compositionality: observation
// congruence ≈ᶜ (and ~, and — for the operators used here — even plain ≈)
// is preserved by composition, restriction and relabeling, so each
// component can be quotiented before the product is taken. See
// engine.CheckNetwork for the minimize-then-compose pipeline.
package compose

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"ccs/internal/fsp"
	"ccs/internal/hashcons"
	"ccs/internal/lts"
)

// Component is one process instance inside a Network, with an optional
// relabeling of its observable actions (CCS P[f]). Relabel maps action
// names to action names; a base-name entry "a" -> "b" also carries the
// co-name "a'" to "b'" unless an explicit "a'" entry overrides it.
type Component struct {
	P       *fsp.FSP
	Relabel map[string]string
}

// SyncRule is one n-way rendezvous vector of a network's synchronization
// table. Parts are action names in the post-relabeling shared namespace
// (a part "a'" matches the co-name literally; no co-name transport is
// applied to parts): the rule fires when len(Parts) *distinct* components
// simultaneously fire the named actions, one part each, and the joint step
// carries Result as its single product label. Result "" (or "tau") makes
// the rendezvous internal, like a handshake; any other name makes it a
// visible action of the product, subject to restriction — hiding the
// result prunes the vector entirely, while hiding a part only removes that
// action's interleavings and leaves the rendezvous intact (exactly the
// hiding semantics of the pairwise handshake).
type SyncRule struct {
	Parts  []string
	Result string
}

// Tau reports whether the rule's joint step is internal.
func (r SyncRule) Tau() bool { return r.Result == "" || r.Result == fsp.TauName }

// String renders the rule as "a + b + c -> res" ("-> tau" for internal).
func (r SyncRule) String() string {
	res := r.Result
	if r.Tau() {
		res = fsp.TauName
	}
	return strings.Join(r.Parts, " + ") + " -> " + res
}

// Network describes the parallel composition of its components with the
// channels in Hidden restricted afterwards: (C1[f1] | ... | Ck[fk]) \ Hidden,
// synchronizing pairwise on complementary names and jointly on the sync
// vectors in Sync (nil Sync is plain CCS).
// The zero value is unusable; construct with New and extend with Add/Hide.
type Network struct {
	Name       string
	Components []Component
	Hidden     []string
	Sync       []SyncRule
}

// New returns a network named name over the given components (no
// relabeling, nothing hidden).
func New(name string, ps ...*fsp.FSP) *Network {
	n := &Network{Name: name}
	for _, p := range ps {
		n.Add(p, nil)
	}
	return n
}

// Add appends a component instance with an optional relabeling and returns
// the network for chaining. The same *fsp.FSP may be added more than once
// (self-composition); instances are independent.
func (n *Network) Add(p *fsp.FSP, relabel map[string]string) *Network {
	n.Components = append(n.Components, Component{P: p, Relabel: relabel})
	return n
}

// Hide appends channel names to the restriction set and returns the
// network for chaining. Hiding a name also hides its co-name.
func (n *Network) Hide(names ...string) *Network {
	n.Hidden = append(n.Hidden, names...)
	return n
}

// AddSync appends a sync vector with the given result label (use "" or
// "tau" for an internal rendezvous) and returns the network for chaining.
func (n *Network) AddSync(result string, parts ...string) *Network {
	n.Sync = append(n.Sync, SyncRule{Parts: parts, Result: result})
	return n
}

// Validate checks the network description: at least one component, no nil
// processes, no relabeling or hiding of tau (or of the saturation epsilon,
// which is not a CCS action).
func (n *Network) Validate() error {
	if len(n.Components) == 0 {
		return fmt.Errorf("compose: network %q has no components", n.Name)
	}
	for i, c := range n.Components {
		if c.P == nil {
			return fmt.Errorf("compose: network %q component %d is nil", n.Name, i)
		}
		for from, to := range c.Relabel {
			if from == fsp.TauName || to == fsp.TauName {
				return fmt.Errorf("compose: component %d relabels tau (%q -> %q); CCS relabeling fixes tau", i, from, to)
			}
			if from == fsp.EpsilonName || to == fsp.EpsilonName {
				return fmt.Errorf("compose: component %d relabels %q; the saturation epsilon is not a CCS action", i, from)
			}
		}
	}
	for _, h := range n.Hidden {
		if h == fsp.TauName {
			return fmt.Errorf("compose: tau cannot be hidden")
		}
	}
	for ri, r := range n.Sync {
		if len(r.Parts) < 2 {
			return fmt.Errorf("compose: sync rule %d (%s) has %d part(s); a rendezvous needs at least two", ri, r, len(r.Parts))
		}
		for _, p := range r.Parts {
			if p == "" || p == fsp.TauName {
				return fmt.Errorf("compose: sync rule %d (%s) uses tau as a part; only observable actions rendezvous", ri, r)
			}
			if p == fsp.EpsilonName {
				return fmt.Errorf("compose: sync rule %d uses %q as a part; the saturation epsilon is not a CCS action", ri, p)
			}
		}
		if r.Result == fsp.EpsilonName {
			return fmt.Errorf("compose: sync rule %d results in %q; the saturation epsilon is not a CCS action", ri, r.Result)
		}
	}
	return nil
}

// String renders the CCS shape of the network.
func (n *Network) String() string {
	parts := make([]string, len(n.Components))
	for i, c := range n.Components {
		nm := c.P.Name()
		if nm == "" {
			nm = "fsp"
		}
		if len(c.Relabel) > 0 {
			nm += "[...]"
		}
		parts[i] = nm
	}
	s := "(" + strings.Join(parts, "|") + ")"
	if len(n.Hidden) > 0 {
		s += "\\{" + strings.Join(n.Hidden, ",") + "}"
	}
	if len(n.Sync) > 0 {
		rules := make([]string, len(n.Sync))
		for i, r := range n.Sync {
			rules[i] = r.String()
		}
		s += " sync{" + strings.Join(rules, "; ") + "}"
	}
	return s
}

// productSink receives the reachable product as it is explored. States are
// announced in discovery order (state i is the i-th addState call; state 0
// is the start), so arcs only ever mention already-announced states.
type productSink interface {
	addState(extNames []string)
	addArc(from, label, to int32)
}

// Step is a component transition translated into the network's dense label
// space; Label 0 is tau.
type Step struct {
	Label int32
	To    int32
}

// Expansion is the dense-label translated view of a network: every
// component's transitions with relabelings applied and actions interned
// into one shared label space, plus the co-name and hidden tables the
// product semantics needs. It is the substrate both of the materializing
// explorer (run) and of the on-the-fly checker in internal/otf, which
// draws successor tuples from it without ever building the product.
// An Expansion is immutable after construction and safe for concurrent
// readers.
type Expansion struct {
	Labels  []string     // dense label names; Labels[0] == "tau"
	CoOf    []int32      // CoOf[l] = dense id of the co-name of l, or -1
	Hidden  []bool       // Hidden[l]: l's interleavings are restricted
	Trans   [][][]Step   // Trans[i][s], sorted by (Label, To)
	Exts    [][][]string // Exts[i][s]: extension variable names
	Starts  []int32
	Vectors []SyncVec // translated sync table; vectors with a restricted result are dropped
	// Holders[l] lists, ascending, the components with an arc labelled l
	// in some state: the only candidates for a handshake or a sync-vector
	// part on l.
	Holders [][]int32
}

// SyncVec is a SyncRule translated into the dense label space: Parts is
// sorted ascending (so equal-label parts are adjacent, which the matching
// enumeration uses to emit each unordered assignment exactly once) and
// Result is the joint step's product label, 0 for tau.
type SyncVec struct {
	Parts  []int32
	Result int32
}

// K returns the number of components.
func (e *Expansion) K() int { return len(e.Trans) }

// Expand translates every component into the shared dense label space:
// relabelings are applied by name (with co-name transport), the hidden set
// is marked on names and co-names, per-state arcs are re-sorted by the
// dense label so a partner's arcs on one label are found by binary search,
// and each label's holders are listed so only they are searched.
func (n *Network) Expand() (*Expansion, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	e := &Expansion{Labels: []string{fsp.TauName}}
	ids := map[string]int32{fsp.TauName: 0}
	intern := func(name string) int32 {
		if id, ok := ids[name]; ok {
			return id
		}
		id := int32(len(e.Labels))
		e.Labels = append(e.Labels, name)
		ids[name] = id
		return id
	}

	k := len(n.Components)
	e.Trans = make([][][]Step, k)
	e.Exts = make([][][]string, k)
	e.Starts = make([]int32, k)
	for i, comp := range n.Components {
		f := comp.P
		e.Starts[i] = int32(f.Start())
		// Per-action dense label after relabeling. An explicit entry for a
		// name wins; otherwise a base-name entry carries its co-name.
		actLabel := make([]int32, f.Alphabet().Len())
		for a := 1; a < f.Alphabet().Len(); a++ {
			name := f.Alphabet().Name(fsp.Action(a))
			if to, ok := comp.Relabel[name]; ok {
				name = to
			} else if base, isCo := strings.CutSuffix(name, "'"); isCo {
				if to, ok := comp.Relabel[base]; ok {
					// CoName, not to+"'": the map may target a co-name
					// ("b" -> "a'"), and CoName is involutive, so b' must
					// become a — a doubled quote would never handshake.
					name = fsp.CoName(to)
				}
			}
			actLabel[a] = intern(name)
		}
		e.Trans[i] = make([][]Step, f.NumStates())
		e.Exts[i] = make([][]string, f.NumStates())
		for s := 0; s < f.NumStates(); s++ {
			arcs := f.Arcs(fsp.State(s))
			ps := make([]Step, len(arcs))
			for j, a := range arcs {
				lbl := int32(0)
				if a.Act != fsp.Tau {
					lbl = actLabel[a.Act]
				}
				ps[j] = Step{Label: lbl, To: int32(a.To)}
			}
			sort.Slice(ps, func(x, y int) bool {
				if ps[x].Label != ps[y].Label {
					return ps[x].Label < ps[y].Label
				}
				return ps[x].To < ps[y].To
			})
			e.Trans[i][s] = ps
			if ext := f.Ext(fsp.State(s)); ext != fsp.EmptyVars {
				var names []string
				for _, id := range ext.IDs() {
					names = append(names, f.Vars().Name(id))
				}
				e.Exts[i][s] = names
			}
		}
	}

	// Translate the sync table before the label-indexed tables are sized:
	// parts and results are interned whether or not any component carries
	// them (an unmatchable part simply never fires; internal/vet flags it).
	for _, r := range n.Sync {
		parts := make([]int32, len(r.Parts))
		for j, p := range r.Parts {
			parts[j] = intern(p)
		}
		sort.Slice(parts, func(x, y int) bool { return parts[x] < parts[y] })
		res := int32(0)
		if !r.Tau() {
			res = intern(r.Result)
		}
		e.Vectors = append(e.Vectors, SyncVec{Parts: parts, Result: res})
	}

	e.Holders = make([][]int32, len(e.Labels))
	for i := range e.Trans {
		for _, ps := range e.Trans[i] {
			for _, a := range ps {
				if h := e.Holders[a.Label]; len(h) == 0 || h[len(h)-1] != int32(i) {
					e.Holders[a.Label] = append(h, int32(i))
				}
			}
		}
	}
	e.CoOf = make([]int32, len(e.Labels))
	e.Hidden = make([]bool, len(e.Labels))
	for l := 1; l < len(e.Labels); l++ {
		if co, ok := ids[fsp.CoName(e.Labels[l])]; ok {
			e.CoOf[l] = co
		} else {
			e.CoOf[l] = -1
		}
	}
	e.CoOf[0] = -1
	for _, h := range n.Hidden {
		if id, ok := ids[h]; ok {
			e.Hidden[id] = true
		}
		if id, ok := ids[fsp.CoName(h)]; ok {
			e.Hidden[id] = true
		}
	}
	// Restriction applies to the *result* of a rendezvous: a vector whose
	// visible result is hidden can never fire and is dropped here, once,
	// instead of being re-tested in every AppendSucc call. Tau results,
	// like handshake taus, always survive restriction.
	if len(e.Vectors) > 0 {
		kept := e.Vectors[:0]
		for _, v := range e.Vectors {
			if v.Result == 0 || !e.Hidden[v.Result] {
				kept = append(kept, v)
			}
		}
		e.Vectors = kept
	}
	return e, nil
}

// Span returns the run of steps labelled l in ps, which must be sorted by
// Label (as every Expansion.Trans row is).
func Span(ps []Step, l int32) []Step {
	lo, hi := 0, len(ps)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ps[m].Label < l {
			lo = m + 1
		} else {
			hi = m
		}
	}
	hi = lo
	for hi < len(ps) && ps[hi].Label == l {
		hi++
	}
	return ps[lo:hi]
}

// emitVectors enumerates every firing of every sync vector at cur: for
// each vector, every assignment of its parts to distinct components whose
// current state enables the part (one arc choice per component), emitted
// as a single joint step labelled with the vector's result. succ and used
// are caller scratch of length K; used must be all false, and is again on
// return.
func (e *Expansion) emitVectors(cur, succ []int32, used []bool, emit func(label int32, succ []int32) bool) bool {
	// succ doubles as the in-progress joint successor: matchVector writes
	// the chosen component moves into it and restores cur on backtrack, so
	// between vectors succ is always a copy of cur.
	copy(succ, cur)
	for _, v := range e.Vectors {
		if !e.matchVector(v, 0, -1, cur, succ, used, emit) {
			return false
		}
	}
	return true
}

// matchVector assigns v.Parts[p:] to distinct components not yet in used,
// emitting one joint successor per complete assignment. prev is the
// component that took part p-1: because Parts is sorted, a run of
// equal-label parts is forced onto strictly increasing component indices,
// so each unordered choice of components is emitted exactly once (arc
// multiplicity within one component still multiplies, as it must).
func (e *Expansion) matchVector(v SyncVec, p int, prev int, cur, succ []int32, used []bool, emit func(label int32, succ []int32) bool) bool {
	if p == len(v.Parts) {
		return emit(v.Result, succ)
	}
	l := v.Parts[p]
	lo := 0
	if p > 0 && v.Parts[p-1] == l {
		lo = prev + 1
	}
	for _, i32 := range e.Holders[l] {
		i := int(i32)
		if i < lo || used[i] {
			continue
		}
		arcs := Span(e.Trans[i][cur[i]], l)
		if len(arcs) == 0 {
			continue
		}
		used[i] = true
		for _, a := range arcs {
			succ[i] = a.To
			if !e.matchVector(v, p+1, i, cur, succ, used, emit) {
				succ[i] = cur[i]
				used[i] = false
				return false
			}
		}
		succ[i] = cur[i]
		used[i] = false
	}
	return true
}

// SuccBatch accumulates the product successors of one state vector as flat
// parallel arrays: successor i is (Labels[i], Vec(i)). It exists for
// callers that need a state's full successor set in hand before acting on
// it: the on-the-fly checker's work-stealing scheduler turns the fresh
// children of one processed pair into a single steal-granular deque entry.
type SuccBatch struct {
	K      int     // vector stride
	Labels []int32 // dense label of successor i
	Vecs   []int32 // len(Labels) vector windows of stride K

	// Sync-vector enumeration scratch, kept across calls.
	succ []int32
	used []bool
}

// Reset clears the batch for reuse, keeping capacity.
func (b *SuccBatch) Reset() {
	b.Labels = b.Labels[:0]
	b.Vecs = b.Vecs[:0]
}

// Len returns the number of buffered successors.
func (b *SuccBatch) Len() int { return len(b.Labels) }

// Vec returns the i-th successor vector, aliasing the batch's storage.
func (b *SuccBatch) Vec(i int) []int32 { return b.Vecs[i*b.K : (i+1)*b.K] }

// AppendSucc appends every product successor of the state vector cur to
// b, exactly as the network semantics dictates: interleavings of unhidden
// actions (tau always), pairwise complementary handshakes as tau, and —
// when the network carries a sync table — every firing of every sync
// vector. The batch's storage is self-contained: cur may be reused
// immediately.
func (e *Expansion) AppendSucc(cur []int32, b *SuccBatch) {
	k := len(e.Trans)
	b.K = k
	for i := 0; i < k; i++ {
		for _, a := range e.Trans[i][cur[i]] {
			if a.Label == 0 || !e.Hidden[a.Label] {
				base := len(b.Vecs)
				b.Vecs = append(b.Vecs, cur...)
				b.Vecs[base+i] = a.To
				b.Labels = append(b.Labels, a.Label)
			}
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
				for _, h := range Span(e.Trans[j][cur[j]], co) {
					base := len(b.Vecs)
					b.Vecs = append(b.Vecs, cur...)
					b.Vecs[base+i] = a.To
					b.Vecs[base+int(j)] = h.To
					b.Labels = append(b.Labels, 0)
				}
			}
		}
	}
	if len(e.Vectors) > 0 {
		if len(b.succ) != k {
			b.succ, b.used = make([]int32, k), make([]bool, k)
		}
		e.emitVectors(cur, b.succ, b.used, func(label int32, s []int32) bool {
			b.Vecs = append(b.Vecs, s...)
			b.Labels = append(b.Labels, label)
			return true
		})
	}
}

// AppendExtNames appends the extension of the product state cur — the
// union of the component extensions by name, sorted and deduplicated — to
// dst and returns the extended slice. seen is caller-provided scratch,
// cleared on entry.
func (e *Expansion) AppendExtNames(dst []string, cur []int32, seen map[string]bool) []string {
	clear(seen)
	base := len(dst)
	for i, s := range cur {
		for _, nm := range e.Exts[i][s] {
			if !seen[nm] {
				seen[nm] = true
				dst = append(dst, nm)
			}
		}
	}
	sort.Strings(dst[base:])
	return dst
}

// pollEvery is how many product states are expanded between context
// checks in run — the same stride the otf scheduler uses, cheap enough
// to be invisible and tight enough that cancelling a huge flat
// composition takes effect within a few hundred states.
const pollEvery = 256

// run walks the reachable product breadth-first, numbering state vectors
// in discovery order and emitting every product transition into the sink.
// Restriction never removes a handshake. The walk polls ctx every
// pollEvery expanded states and abandons the product on cancellation; a
// partially filled sink is discarded by the caller.
func (e *Expansion) run(ctx context.Context, sink productSink) error {
	states := hashcons.New[int32](len(e.Trans), 64)
	extScratch := map[string]bool{}
	intern := func(v []int32) int32 {
		id, fresh := states.Intern(v)
		if fresh {
			// Extension: union of the component extensions by name.
			sink.addState(e.AppendExtNames(nil, v, extScratch))
		}
		return id
	}

	intern(e.Starts)
	var b SuccBatch
	for head := int32(0); int(head) < states.Len(); head++ {
		if head%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		b.Reset()
		e.AppendSucc(states.Key(head), &b)
		for j := 0; j < b.Len(); j++ {
			sink.addArc(head, b.Labels[j], intern(b.Vec(j)))
		}
	}
	return nil
}

// fspSink materializes the product as an *fsp.FSP. The builder's alphabet
// is pre-interned in dense-label order, so dense label l is fsp.Action l.
type fspSink struct {
	b *fsp.Builder
}

func (s *fspSink) addState(extNames []string) {
	st := s.b.AddState()
	if len(extNames) > 0 {
		s.b.Extend(st, extNames...)
	}
}

func (s *fspSink) addArc(from, label, to int32) {
	s.b.Arc(fsp.State(from), fsp.Action(label), fsp.State(to))
}

// FSP materializes the reachable product as a process: the composed FSP of
// Milner's (C1[f1] | ... | Ck[fk]) \ Hidden, with only reachable states
// constructed. Use this form to feed the product into the quotient,
// saturation and equivalence pipelines.
func (n *Network) FSP() (*fsp.FSP, error) { return n.FSPCtx(context.Background()) }

// FSPCtx is FSP with cancellation: the product walk polls ctx and
// returns its error mid-composition, so a server deadline or Ctrl-C
// stops a state-space explosion instead of riding it out.
func (n *Network) FSPCtx(ctx context.Context) (*fsp.FSP, error) {
	e, err := n.Expand()
	if err != nil {
		return nil, err
	}
	name := n.Name
	if name == "" {
		name = n.String()
	}
	b := fsp.NewBuilder(name)
	for _, l := range e.Labels[1:] {
		b.Action(l)
	}
	sink := &fspSink{b: b}
	if err := e.run(ctx, sink); err != nil {
		return nil, err
	}
	b.SetStart(0)
	out, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("compose: %w", err)
	}
	return out, nil
}

// csrSink streams the product straight into the CSR refinement index,
// tracking the extension signature of each state for the initial
// partition. No *fsp.FSP, no name interning per arc, no edge slices beyond
// the index builder's own columnar buffers.
type csrSink struct {
	b       *lts.Builder
	initial []int32
	sigs    map[string]int32
	buf     []byte
}

func (s *csrSink) addState(extNames []string) {
	s.b.EnsureStates(len(s.initial) + 1)
	s.buf = s.buf[:0]
	for _, nm := range extNames {
		s.buf = append(s.buf, nm...)
		s.buf = append(s.buf, 0)
	}
	blk, ok := s.sigs[string(s.buf)]
	if !ok {
		blk = int32(len(s.sigs))
		s.sigs[string(s.buf)] = blk
	}
	s.initial = append(s.initial, blk)
}

func (s *csrSink) addArc(from, label, to int32) { s.b.Add(from, label, to) }

// Index materializes the reachable product directly into the internal/lts
// refinement index together with the extension-grouped initial partition
// (the Lemma 3.1 instance for the product). This is the flat-composition
// fast path for callers that only partition, count or benchmark the
// product: the FSP form is never built. Labels are named, so the index
// unions with FromFSP-built indexes of other processes.
func (n *Network) Index() (*lts.Index, []int32, error) {
	return n.IndexCtx(context.Background())
}

// IndexCtx is Index with cancellation, mirroring FSPCtx.
func (n *Network) IndexCtx(ctx context.Context) (*lts.Index, []int32, error) {
	e, err := n.Expand()
	if err != nil {
		return nil, nil, err
	}
	sink := &csrSink{b: lts.NewNamedBuilder(0, e.Labels), sigs: map[string]int32{}}
	if err := e.run(ctx, sink); err != nil {
		return nil, nil, err
	}
	return sink.b.Build(), sink.initial, nil
}
