// Package otf is the on-the-fly compositional verification subsystem: it
// decides whether a network of communicating processes is equivalent to a
// specification by playing the bisimulation game lazily on the reachable
// part of the product-vs-spec pair space, never materializing the
// composed process (no compose.Network.FSP, no Index, no saturation of
// the product).
//
// The game. Successor tuples are drawn directly from the network's
// compose.Expansion — the per-component dense-label transition tables the
// materializing explorer runs on, including any n-way sync-vector
// rendezvous the network's synchronization table defines: a joint step
// arrives here as one product transition whose dense label is the
// vector's result (0 for tau), so the enabledness bitsets, the lazy weak
// closures and the ≈ᶜ root condition consume vector labels with no
// special casing — and paired with the states of a
// deterministic view of the spec. When the spec is action-deterministic
// (and tau-free for the weak relations) that view is the spec itself;
// otherwise the spec side is determinized lazily by the subset
// construction (Fernandez–Mounier style): spec "states" become
// hash-consed tau-closed subsets built on demand from closure rows and
// action-successor unions, and the visited table interns (product vector,
// subset id) pairs. Either way every move of the network forces a unique
// answering move of the spec side, so the greatest bisimulation
// containing the start pair is reachable by plain BFS over forced pairs
// and equivalence reduces to a per-pair local check:
//
//   - the pair's extensions must agree (the initial-partition condition
//     of Lemma 3.1, checked pointwise);
//   - every product transition must be answered by the spec: observables
//     through the (determinized) transition function, taus by the spec
//     standing still (weak game) or by a matching spec tau (strong game);
//   - every action the spec side enables must be (weakly) enabled in the
//     product — for the weak game this walks the product's tau-closure
//     lazily, stopping as soon as the obligations are met, and each
//     worker memoizes what its walks learned for the rest of the game.
//
// Soundness of the determinized game. Determinization preserves traces,
// not bisimilarity, so the subset game carries a side condition: every
// subset it touches must be homogeneous — all members weakly equivalent
// as states of the spec (strongly, for the strong game), checked against
// a partition of the small spec computed up front. On homogeneous
// subsets a member is interchangeable with any other and the forced
// subset answer is as good as any nondeterministic answer, so the game
// decides exactly the chosen relation (the spec is determinate along
// every explored trace, in Milner's sense). The moment a subset mixes
// inequivalent states the spec's nondeterminism is essential, neither
// verdict would be sound, and Check returns an *UndecidedError instead
// of guessing — callers (engine.CheckNetworkOTF) fall back to
// minimize-then-compose, recording the reason.
//
// The first pair failing a check is a distinguishing state: the game
// stops immediately and reports the verdict with a diagnostic trace from
// the start pair. On inequivalent instances whose mismatch is shallow —
// a buggy station in an exponentially large token ring — the game
// terminates after visiting a vanishing fraction of the product.
//
// Exploration is parallel and work-stealing: each worker owns a
// Chase–Lev deque of successor batches (the fresh pairs one processed
// pair discovered, compose.SuccBatch granularity), pops its own work LIFO
// and steals the oldest batch of a random victim when dry. Discovered
// pairs are hash-consed into a 64-way sharded visited table, termination
// is detected by a distributed active-batch counter (a batch's children
// are registered before the batch itself retires, so the counter reaches
// zero exactly when no work remains anywhere), the first mismatch wins
// via an atomic flag, and every worker polls the context periodically so
// deadlines interrupt a running game. A progress hook installed with
// obs.WithOTFProgress receives periodic snapshots from a sampler
// goroutine; workers never touch shared progress state without one.
//
// Soundness of the quotient wiring mirrors engine.CheckNetwork: callers
// pass the network with components already quotiented by a congruence
// for the relation (engine does this through its artifact cache), which
// shrinks the pair space but never changes the verdict. See
// engine.CheckNetworkOTF for the wiring and the fallback to
// minimize-then-compose when the game genuinely cannot play.
package otf

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccs/internal/compose"
	"ccs/internal/fsp"
	"ccs/internal/hashcons"
	"ccs/internal/obs"
)

// Rel selects the equivalence the game decides.
type Rel int

const (
	// Strong is strong equivalence ~: tau is an ordinary label, so the
	// spec may carry (deterministic) tau transitions.
	Strong Rel = iota + 1
	// Weak is observational equivalence ≈ (Definition 2.2.1).
	Weak
	// Congruence is observation congruence ≈ᶜ: the weak game with the
	// root condition — an initial tau of the product must be answered by
	// a spec =tau=>+ move and vice versa, checked at the start pair.
	Congruence
)

func (r Rel) String() string {
	switch r {
	case Strong:
		return "strong"
	case Weak:
		return "weak"
	case Congruence:
		return "congruence"
	default:
		return "unknown"
	}
}

// Options tunes a Check run.
type Options struct {
	// Workers is the exploration pool size; <= 0 selects GOMAXPROCS.
	Workers int
}

// Counterexample is a distinguishing scenario found by the game.
type Counterexample struct {
	// Trace is the action sequence (tau included) from the start of the
	// product to the mismatching pair.
	Trace []string
	// Reason says what the mismatch is.
	Reason string
}

func (c *Counterexample) String() string {
	t := strings.Join(c.Trace, "·")
	if t == "" {
		t = "ε"
	}
	return fmt.Sprintf("after %s: %s", t, c.Reason)
}

// Result is the outcome of one on-the-fly check.
type Result struct {
	// Equivalent is the verdict.
	Equivalent bool
	// Pairs is the number of distinct (product state, spec state) pairs
	// interned before the game ended — the lazy analogue of the product
	// state count, and the measure of how early an early exit was.
	Pairs int
	// Explored is the number of pairs whose local game checks actually
	// ran (≤ Pairs: interned-but-unprocessed pairs remain when the game
	// ends early). Under work-stealing there are no BFS levels, so this
	// replaces the former Depth field as the work measure.
	Explored int
	// MaxWalk is the deepest tau-closure walk (in tau steps) the game ran
	// for a weak-enabledness obligation. Walks are memoized per worker, so
	// this is the depth of the walks the memo left to run, not of every
	// obligation: an obligation already known to hold costs no walk.
	MaxWalk int
	// Workers is the exploration pool size the run actually used.
	Workers int
	// Steals is the number of successful batch steals (0 in single-worker
	// runs).
	Steals int
	// Utilization is mean-over-max per-worker explored-pair load in
	// (0, 1]: 1 means perfectly balanced workers, 1/Workers means one
	// worker did everything.
	Utilization float64
	// Determinized reports that the spec was not action-deterministic
	// (or not tau-free, for the weak relations) and the game ran on its
	// lazily determinized subset view.
	Determinized bool
	// SpecSubsets is the number of distinct spec subsets interned by the
	// determinized game (0 when Determinized is false) — the lazy
	// analogue of the subset-construction state count.
	SpecSubsets int
	// Counterexample describes the first mismatch; nil when equivalent.
	Counterexample *Counterexample
}

// ViolationKind classifies one way a spec fails Eligible.
type ViolationKind int

const (
	// ViolationTau is a tau transition in a spec for a weak-family game
	// (the strong game treats tau as an ordinary deterministic label).
	// The determinized game absorbs it into tau-closed subsets.
	ViolationTau ViolationKind = iota + 1
	// ViolationNondeterminism is a state with two transitions on the
	// same action. The determinized game absorbs it into subsets.
	ViolationNondeterminism
	// ViolationEpsilon is a transition on the saturation epsilon, which
	// is not a CCS action: no game can play such a spec.
	ViolationEpsilon
	// ViolationEmpty is a nil or zero-state spec.
	ViolationEmpty
)

// Violation is one spec defect found by Eligible, located so users can
// repair the spec.
type Violation struct {
	// State is the offending spec state (0 for ViolationEmpty).
	State int
	// Action is the offending action name ("" when not applicable).
	Action string
	Kind   ViolationKind
}

func (v Violation) String() string {
	switch v.Kind {
	case ViolationTau:
		return fmt.Sprintf("state %d has a tau transition", v.State)
	case ViolationNondeterminism:
		return fmt.Sprintf("state %d is nondeterministic on %q", v.State, v.Action)
	case ViolationEpsilon:
		return fmt.Sprintf("state %d transitions on the saturation epsilon %q", v.State, fsp.EpsilonName)
	case ViolationEmpty:
		return "spec has no states"
	default:
		return fmt.Sprintf("unknown violation at state %d", v.State)
	}
}

// MaxViolations caps the violations an IneligibleError carries; Total
// still counts them all.
const MaxViolations = 8

// IneligibleError reports every way (capped at MaxViolations) a spec
// fails the direct deterministic game, so users can repair the spec in
// one pass instead of one error at a time.
type IneligibleError struct {
	// Rel is the game the spec was tested for.
	Rel Rel
	// Violations lists the first MaxViolations defects in state order.
	Violations []Violation
	// Total is the uncapped defect count.
	Total int
	// Fatal is true when the spec can never enter the game at all, even
	// determinized: it is empty or transitions on the saturation
	// epsilon. False means every violation is a tau arc or plain
	// nondeterminism, which the determinized subset game absorbs.
	Fatal bool
}

// Determinizable reports whether the lazy subset construction can lift
// the spec into the game regardless of these violations.
func (e *IneligibleError) Determinizable() bool { return !e.Fatal }

func (e *IneligibleError) Error() string {
	msgs := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		msgs[i] = v.String()
	}
	more := ""
	if e.Total > len(e.Violations) {
		more = fmt.Sprintf(" (and %d more)", e.Total-len(e.Violations))
	}
	return fmt.Sprintf("otf: spec ineligible for the direct %s game: %s%s", e.Rel, strings.Join(msgs, "; "), more)
}

// UndecidedError reports that the determinized game met essential
// nondeterminism: a reachable spec subset mixes states that are not
// equivalent to each other, so the forced subset answer is not
// interchangeable with the spec's nondeterministic choices and neither
// verdict would be sound. The game refuses to guess; callers should fall
// back to a solver that plays full nondeterminism (minimize-then-compose
// in engine.CheckNetworkOTF).
type UndecidedError struct {
	// Reason describes the heterogeneous subset.
	Reason string
}

func (e *UndecidedError) Error() string {
	return "otf: game undecided: " + e.Reason
}

// Eligible reports whether spec can serve as the deterministic side of
// the direct on-the-fly game for rel: action-deterministic everywhere,
// tau-free unless the game is strong, and free of the saturation
// epsilon. A nil error means Check plays the spec directly; a non-nil
// error is always an *IneligibleError aggregating every violation
// (capped at MaxViolations) — if its Determinizable method reports true,
// Check still plays the spec through the lazy subset construction.
func Eligible(spec *fsp.FSP, rel Rel) error {
	if spec == nil || spec.NumStates() == 0 {
		return &IneligibleError{Rel: rel, Violations: []Violation{{Kind: ViolationEmpty}}, Total: 1, Fatal: true}
	}
	e := &IneligibleError{Rel: rel}
	add := func(v Violation) {
		e.Total++
		if len(e.Violations) < MaxViolations {
			e.Violations = append(e.Violations, v)
		}
	}
	for s := 0; s < spec.NumStates(); s++ {
		arcs := spec.Arcs(fsp.State(s))
		sawTau := false
		for i, a := range arcs {
			// One tau violation per state, however many tau arcs it has —
			// duplicates would burn the cap and hide distinct defects.
			if a.Act == fsp.Tau && rel != Strong && !sawTau {
				sawTau = true
				add(Violation{State: s, Kind: ViolationTau})
			}
			if spec.Alphabet().Name(a.Act) == fsp.EpsilonName {
				add(Violation{State: s, Action: fsp.EpsilonName, Kind: ViolationEpsilon})
				e.Fatal = true
			}
			// Arcs are (action, target)-sorted and deduplicated, so a
			// repeated action means two distinct targets. Report each
			// (state, action) once — at the first repeat of its run — and
			// skip tau for the weak games, where the state was already
			// reported as ViolationTau.
			if i > 0 && arcs[i-1].Act == a.Act && (i < 2 || arcs[i-2].Act != a.Act) &&
				(a.Act != fsp.Tau || rel == Strong) {
				add(Violation{State: s, Action: spec.Alphabet().Name(a.Act), Kind: ViolationNondeterminism})
			}
		}
	}
	if e.Total == 0 {
		return nil
	}
	return e
}

// Check decides whether net rel spec by the on-the-fly game. Specs
// satisfying Eligible play directly; nondeterministic or tau-bearing
// specs play through the lazy subset determinization, which returns an
// *UndecidedError if the nondeterminism turns out to be essential (see
// the package comment). The network is explored lazily and the call
// returns as soon as a mismatch is found. Cancelling the context stops
// the exploration within a bounded number of pairs per worker (each
// worker polls ctx periodically), returning ctx.Err(). A progress hook
// installed with obs.WithOTFProgress receives snapshots of the run —
// pairs interned, pairs explored, steal count, per-worker deque depths —
// every interval (default 500ms), plus one final snapshot when it ends.
func Check(ctx context.Context, net *compose.Network, spec *fsp.FSP, rel Rel, opts Options) (*Result, error) {
	switch rel {
	case Strong, Weak, Congruence:
	default:
		return nil, fmt.Errorf("otf: relation %d not covered by the on-the-fly game", rel)
	}
	determinize := false
	if err := Eligible(spec, rel); err != nil {
		var ie *IneligibleError
		if !errors.As(err, &ie) || !ie.Determinizable() {
			return nil, err
		}
		determinize = true
	}
	e, err := net.Expand()
	if err != nil {
		return nil, err
	}
	s, err := newSession(e, spec, rel, determinize)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if prog, every := obs.OTFProgressFrom(ctx); prog != nil {
		if every <= 0 {
			every = 500 * time.Millisecond
		}
		s.prog = &progressState{
			fn: prog, every: every, workers: workers, start: time.Now(),
			exploredBy: make([]progSlot, workers),
			stolenBy:   make([]progSlot, workers),
		}
	}
	res, err := s.explore(ctx, workers)
	if err != nil {
		return nil, err
	}
	res.Determinized = determinize
	if d, ok := s.spec.(*detSpec); ok {
		res.SpecSubsets = d.numSubsets()
	}
	return res, nil
}

// Sentinel answers of specSide.delta: the spec side cannot answer the
// move at all (a mismatch), or the determinized side hit a heterogeneous
// subset (the game must abort undecided).
const (
	specNoMove    int32 = -1
	specUndecided int32 = -2
)

// specSide is the deterministic right-hand player of the game: either
// the spec itself (directSpec, when Eligible passes) or its lazily
// determinized subset view (detSpec). Ids are spec states in the direct
// case and interned subset ids in the determinized case; both start from
// start(). Implementations must be safe for concurrent readers.
type specSide interface {
	start() int32
	// delta returns the forced answer to label l from id q, specNoMove
	// when there is none, or specUndecided (determinized only) when the
	// answering subset mixes inequivalent states.
	delta(q, l int32) int32
	// pairRows returns q's extension bitset (stride session.extWords)
	// and enabled-label bitset (stride session.words; for the weak games
	// the tau bit is never set) in one call — the hot path reads both
	// once per pair, and the determinized side serves them under a
	// single lock acquisition.
	pairRows(q int32) (ext, enabled []uint64)
	// rootTauDelta answers an initial product tau under the ≈ᶜ root
	// condition: the spec's =tau=>+ derivative subset, or specNoMove
	// when the spec has none (a tau-free direct spec always answers
	// specNoMove, reproducing the root-condition mismatch).
	rootTauDelta() int32
	// rootHasTau reports whether the spec's start state itself has a
	// strong tau arc — the symmetric ≈ᶜ root obligation on the product.
	rootHasTau() bool
	// describe renders id q for diagnostics ("state 3", "subset {1,4}").
	describe(q int32) string
}

// directSpec is the PR-4 fast path: flat per-(state, label) tables of a
// spec that is action-deterministic (and tau-free for the weak games).
type directSpec struct {
	numLabels int
	// deltas[q*numLabels+l] is the unique l-successor of spec state q or
	// specNoMove; enabled is the per-state enabled-label bitset (stride
	// words). For the weak games the tau bit is never set (the spec is
	// tau-free there by eligibility).
	deltas  []int32
	enabled []uint64
	words   int
	ext     [][]uint64
	startSt int32
}

func (d *directSpec) start() int32 { return d.startSt }

func (d *directSpec) delta(q, l int32) int32 { return d.deltas[int(q)*d.numLabels+int(l)] }

func (d *directSpec) pairRows(q int32) (ext, enabled []uint64) {
	return d.ext[q], d.enabled[int(q)*d.words : (int(q)+1)*d.words]
}

func (d *directSpec) rootTauDelta() int32 { return specNoMove }

func (d *directSpec) rootHasTau() bool { return false }

func (d *directSpec) describe(q int32) string { return fmt.Sprintf("state %d", q) }

// nShards is the visited-table shard count; pair ids carry the shard in
// their low bits.
const (
	shardBits = 6
	nShards   = 1 << shardBits
)

// parentLink records how a pair was first discovered, for trace
// reconstruction: the discovering pair and the product label taken.
// The root pair has parent -1.
type parentLink struct {
	parent int32
	label  int32
}

// shard is one slice of the hash-consed visited table. ids numbers the
// pairs' keys, each the product state vector with the spec id appended;
// a pair id is its local id shifted left by shardBits and or-ed with the
// shard index. parents is indexed by the local id.
type shard struct {
	mu      sync.Mutex
	index   int32
	ids     hashcons.Table[int32]
	parents []parentLink
}

// pairRec is one frontier entry: an interned pair with its state vector,
// which aliases the pair's key in its shard, so expansion never looks the
// pair up again.
type pairRec struct {
	id  int32
	q   int32
	vec []int32
}

// failure is the first mismatch found, published through an atomic
// pointer so every worker stops on the next pair. undecided marks a
// determinized-game abort (heterogeneous subset) instead of a verdict.
type failure struct {
	at        int32
	reason    string
	undecided bool
}

// session holds the translated spec side and the shared exploration
// state.
type session struct {
	e   *compose.Expansion
	rel Rel
	k   int

	// labelNames extends the expansion's dense labels with actions only
	// the spec performs; numLabels is its length and words the bitset
	// width over it.
	labelNames []string
	numLabels  int
	words      int

	// Extension signatures as bitsets over the interned extension-variable
	// names (stride extWords): compExt per component state (nil = empty
	// extension); the spec side carries its own rows.
	extWords int
	extNames []string
	compExt  [][][]uint64

	spec   specSide
	rootID int32
	shards [nShards]shard
	pairs  atomic.Int64
	fail   atomic.Pointer[failure]

	// active counts outstanding batches under the work-stealing
	// scheduler: every batch is registered before its parent batch
	// retires, so zero means no work remains anywhere (termination).
	active atomic.Int64
	// canceled is set by the first worker that observes ctx.Err() != nil;
	// every loop polls it alongside fail.
	canceled atomic.Bool

	// prog is the optional progress sampler state; nil when no hook is
	// installed, and every publication site guards on that nil so the
	// unobserved game pays one predictable branch per batch.
	prog *progressState
}

// progressState feeds the sampler goroutine. Each worker publishes its
// explored and steal counts into its own cache-line-padded slot — an
// owned plain store, never a contended read-modify-write — and the
// sampler sums the slots at each tick (the workers' private plain-int
// counters stay the source of truth for the final Result).
type progressState struct {
	fn      obs.OTFProgressFunc
	every   time.Duration
	workers int
	start   time.Time

	exploredBy []progSlot
	stolenBy   []progSlot
	deques     []*wsDeque // set before the sampler starts
}

// progSlot pads one published counter to its own cache line so eight
// workers storing at once never share a line (the E22 overhead gate).
type progSlot struct {
	v atomic.Int64
	_ [56]byte
}

func (p *progressState) sum(slots []progSlot) int64 {
	var n int64
	for i := range slots {
		n += slots[i].v.Load()
	}
	return n
}

// sample runs on its own goroutine: a snapshot per tick, plus the
// guaranteed final snapshot when stop closes.
func (s *session) sampleProgress(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(s.prog.every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			s.prog.fn(s.snapshot(true))
			return
		case <-t.C:
			s.prog.fn(s.snapshot(false))
		}
	}
}

func (s *session) snapshot(final bool) obs.OTFSnapshot {
	p := s.prog
	snap := obs.OTFSnapshot{
		Elapsed:       time.Since(p.start),
		Workers:       p.workers,
		Pairs:         s.pairs.Load(),
		Explored:      p.sum(p.exploredBy),
		Steals:        p.sum(p.stolenBy),
		ActiveBatches: s.active.Load(),
		Final:         final,
	}
	snap.DequeDepths = make([]int, len(p.deques))
	for i, d := range p.deques {
		snap.DequeDepths[i] = d.size()
	}
	if d, ok := s.spec.(*detSpec); ok {
		snap.SpecSubsets = d.numSubsets()
	}
	return snap
}

func newSession(e *compose.Expansion, spec *fsp.FSP, rel Rel, determinize bool) (*session, error) {
	s := &session{e: e, rel: rel, k: e.K()}

	// Dense labels: the network's, plus any spec action missing from
	// them. Spec-only labels are never produced by the product, so pairs
	// whose spec side enables one fail the enabledness check — exactly
	// the right verdict.
	s.labelNames = append([]string(nil), e.Labels...)
	labelOf := make(map[string]int32, len(s.labelNames))
	for i, nm := range s.labelNames {
		labelOf[nm] = int32(i)
	}
	specLabel := make([]int32, spec.Alphabet().Len())
	specLabel[fsp.Tau] = 0
	for a := 1; a < spec.Alphabet().Len(); a++ {
		nm := spec.Alphabet().Name(fsp.Action(a))
		id, ok := labelOf[nm]
		if !ok {
			id = int32(len(s.labelNames))
			s.labelNames = append(s.labelNames, nm)
			labelOf[nm] = id
		}
		specLabel[a] = id
	}
	s.numLabels = len(s.labelNames)
	s.words = (s.numLabels + 63) / 64

	// Extension-name interning: bit per distinct variable name across the
	// components and the spec, so product-extension unions are word ORs.
	extOf := map[string]int32{}
	internExt := func(nm string) int32 {
		id, ok := extOf[nm]
		if !ok {
			id = int32(len(s.extNames))
			s.extNames = append(s.extNames, nm)
			extOf[nm] = id
		}
		return id
	}
	n := spec.NumStates()
	for q := 0; q < n; q++ {
		for _, id := range spec.Ext(fsp.State(q)).IDs() {
			internExt(spec.Vars().Name(id))
		}
	}
	for i := range e.Exts {
		for _, names := range e.Exts[i] {
			for _, nm := range names {
				internExt(nm)
			}
		}
	}
	s.extWords = (len(s.extNames) + 63) / 64
	if s.extWords == 0 {
		s.extWords = 1
	}
	stateExt := make([][]uint64, n)
	for q := 0; q < n; q++ {
		m := make([]uint64, s.extWords)
		for _, id := range spec.Ext(fsp.State(q)).IDs() {
			setBit(m, extOf[spec.Vars().Name(id)])
		}
		stateExt[q] = m
	}
	s.compExt = make([][][]uint64, len(e.Exts))
	for i := range e.Exts {
		s.compExt[i] = make([][]uint64, len(e.Exts[i]))
		for st, names := range e.Exts[i] {
			if len(names) == 0 {
				continue
			}
			m := make([]uint64, s.extWords)
			for _, nm := range names {
				setBit(m, extOf[nm])
			}
			s.compExt[i][st] = m
		}
	}

	if determinize {
		d, err := newDetSpec(spec, rel, specLabel, stateExt, s.numLabels, s.words)
		if err != nil {
			return nil, err
		}
		s.spec = d
	} else {
		s.spec = newDirectSpec(spec, specLabel, stateExt, s.numLabels, s.words)
	}

	for i := range s.shards {
		s.shards[i].index = int32(i)
		s.shards[i].ids = *hashcons.New[int32](s.k+1, 0)
	}
	return s, nil
}

// newDirectSpec builds the flat delta/enabled tables of an eligible spec.
func newDirectSpec(spec *fsp.FSP, specLabel []int32, stateExt [][]uint64, numLabels, words int) *directSpec {
	n := spec.NumStates()
	d := &directSpec{
		numLabels: numLabels,
		deltas:    make([]int32, n*numLabels),
		enabled:   make([]uint64, n*words),
		words:     words,
		ext:       stateExt,
		startSt:   int32(spec.Start()),
	}
	for i := range d.deltas {
		d.deltas[i] = specNoMove
	}
	for q := 0; q < n; q++ {
		enabled := d.enabled[q*words : (q+1)*words]
		for _, a := range spec.Arcs(fsp.State(q)) {
			l := specLabel[a.Act]
			d.deltas[q*numLabels+int(l)] = int32(a.To)
			setBit(enabled, l)
		}
	}
	return d
}

// intern hash-conses the pair whose key is vec‖q (length k+1), recording
// its discovery parent on first sight. A fresh pair's vector is returned
// as an alias of its key in the shard, which never changes once stored.
func (s *session) intern(key []int32, parent, label int32) (id int32, vec []int32, fresh bool) {
	h := hashcons.Hash(key)
	sh := &s.shards[h&(nShards-1)]
	sh.mu.Lock()
	local, fresh := sh.ids.InternHash(key, h)
	if fresh {
		vec = sh.ids.Key(local)[:s.k:s.k]
		sh.parents = append(sh.parents, parentLink{parent: parent, label: label})
	}
	sh.mu.Unlock()
	if fresh {
		s.pairs.Add(1)
	}
	return local<<shardBits | sh.index, vec, fresh
}

// trace reconstructs the label path from the root to pair id. Called only
// after the workers have stopped.
func (s *session) trace(id int32) []string {
	var labels []int32
	for id >= 0 {
		p := s.shards[id&(nShards-1)].parents[id>>shardBits]
		if p.label >= 0 {
			labels = append(labels, p.label)
		}
		id = p.parent
	}
	out := make([]string, len(labels))
	for i, l := range labels {
		out[len(labels)-1-i] = s.labelNames[l]
	}
	return out
}

// worker is the per-goroutine state: bitsets, the pair-key buffer, the
// successor batches, the closure-walk memo, and the per-worker counters
// the Result stats aggregate.
type worker struct {
	s       *session
	batch   compose.SuccBatch
	key     []int32 // pair key scratch: product vector, then spec id
	ext     []uint64
	direct  []uint64
	missing []uint64
	rng     uint64

	// The closure-walk memo, kept for the whole game (see walkMissing):
	// walk numbers every product state a walk reached; known holds, at
	// stride s.words per state, the labels the state is known to enable
	// weakly; stamp marks the states the current walk (epoch) queued.
	walk      *hashcons.Table[int32]
	known     []uint64
	stamp     []uint32
	epoch     uint32
	queue     []int32 // BFS queue of walk-state ids
	depths    []int32 // tau depth of each queue entry
	walkBatch compose.SuccBatch
	oblig     []uint64

	explored int
	walked   int // closure states expanded, for the poll stride
	steals   int
	maxWalk  int

	// pubExplored/pubSteals point at this worker's padded progress slots
	// (nil when no hook is installed): publication is an owned store, so
	// the observed hot loop never touches a shared cache line.
	pubExplored *atomic.Int64
	pubSteals   *atomic.Int64
}

func (s *session) newWorker(id int) *worker {
	return &worker{
		s:       s,
		key:     make([]int32, s.k+1),
		ext:     make([]uint64, s.extWords),
		direct:  make([]uint64, s.words),
		missing: make([]uint64, s.words),
		walk:    hashcons.New[int32](s.k, 0),
		oblig:   make([]uint64, s.words),
		rng:     uint64(id)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D,
	}
}

// rngNext is a per-worker xorshift64 used only for victim selection —
// contention spreading, not statistics.
func (w *worker) rngNext() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// pollEvery is how many processed pairs a worker lets pass between
// ctx.Err() polls: rare enough to stay off the hot path, frequent enough
// that WithTimeout deadlines interrupt a running game promptly.
const pollEvery = 256

// explore runs the parallel game and assembles the Result (or the ctx /
// undecided error).
func (s *session) explore(ctx context.Context, workers int) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rootQ := s.spec.start()
	var rootVec []int32
	s.rootID, rootVec, _ = s.intern(append(append([]int32(nil), s.e.Starts...), rootQ), -1, -1)
	root := pairRec{id: s.rootID, q: rootQ, vec: rootVec}

	pool := make([]*worker, workers)
	deques := make([]*wsDeque, workers)
	for i := range pool {
		pool[i] = s.newWorker(i)
		deques[i] = newWSDeque()
		if s.prog != nil {
			pool[i].pubExplored = &s.prog.exploredBy[i].v
			pool[i].pubSteals = &s.prog.stolenBy[i].v
		}
	}

	if s.prog != nil {
		s.prog.deques = deques
		stop, done := make(chan struct{}), make(chan struct{})
		go s.sampleProgress(stop, done)
		// The final snapshot is delivered before explore returns, so a
		// caller's hook has seen the end of the run by the time it gets
		// the Result.
		defer func() { close(stop); <-done }()
	}

	s.exploreSteal(ctx, pool, deques, root)

	if s.canceled.Load() && s.fail.Load() == nil {
		return nil, ctx.Err()
	}

	res := &Result{Pairs: int(s.pairs.Load()), Workers: workers}
	maxExplored := 0
	for _, w := range pool {
		res.Explored += w.explored
		res.Steals += w.steals
		if w.explored > maxExplored {
			maxExplored = w.explored
		}
		if w.maxWalk > res.MaxWalk {
			res.MaxWalk = w.maxWalk
		}
	}
	res.Utilization = 1
	if maxExplored > 0 {
		res.Utilization = float64(res.Explored) / (float64(workers) * float64(maxExplored))
	}

	if f := s.fail.Load(); f != nil {
		cx := &Counterexample{Trace: s.trace(f.at), Reason: f.reason}
		if f.undecided {
			return nil, &UndecidedError{Reason: fmt.Sprintf("%s (reached %s)", f.reason, traceClause(cx.Trace))}
		}
		res.Counterexample = cx
		return res, nil
	}
	res.Equivalent = true
	return res, nil
}

// exploreSteal is the work-stealing scheduler: the root pair seeds worker
// 0's deque as a one-pair batch, and every worker loops pop → steal →
// idle-check until the active-batch counter hits zero or a stop flag is
// raised. No barriers: a worker that drains its own deque immediately
// raids a random victim's oldest batch.
func (s *session) exploreSteal(ctx context.Context, pool []*worker, deques []*wsDeque, root pairRec) {
	s.active.Store(1)
	deques[0].push(&batch{recs: []pairRec{root}})

	var wg sync.WaitGroup
	for wi := range pool {
		wg.Add(1)
		go func(w *worker, self int) {
			defer wg.Done()
			my := deques[self]
			idle := 0
			for {
				if s.fail.Load() != nil || s.canceled.Load() {
					return
				}
				b := my.pop()
				if b == nil {
					b = w.stealBatch(deques, self)
				}
				if b == nil {
					if s.active.Load() == 0 {
						return
					}
					// Idle: someone still holds work. Poll ctx here too so
					// a starved worker notices a deadline without pairs.
					if ctx.Err() != nil {
						s.canceled.Store(true)
						return
					}
					// Back off exponentially: a few yields, then short
					// sleeps. Hot-spinning thieves on an oversubscribed
					// machine (workers > cores) would otherwise preempt
					// the very workers they are waiting on.
					idle++
					if idle <= 4 {
						runtime.Gosched()
					} else {
						d := time.Duration(1<<min(idle-5, 5)) * 4 * time.Microsecond
						time.Sleep(d)
					}
					continue
				}
				idle = 0
				w.runBatch(ctx, my, b)
			}
		}(pool[wi], wi)
	}
	wg.Wait()
}

// stealBatch tries every other deque once, starting from a random victim.
func (w *worker) stealBatch(deques []*wsDeque, self int) *batch {
	n := len(deques)
	if n == 1 {
		return nil
	}
	off := int(w.rngNext() % uint64(n))
	for i := 0; i < n; i++ {
		v := (off + i) % n
		if v == self {
			continue
		}
		if b := deques[v].steal(); b != nil {
			w.steals++
			if w.pubSteals != nil {
				w.pubSteals.Store(int64(w.steals))
			}
			return b
		}
	}
	return nil
}

// runBatch processes one batch, pushing each pair's fresh children as a
// new batch onto the worker's own deque. The child batch is registered on
// the active counter BEFORE this batch retires — the invariant that makes
// a zero counter mean global termination.
func (w *worker) runBatch(ctx context.Context, my *wsDeque, b *batch) {
	s := w.s
	done := 0
	for _, rec := range b.recs {
		if s.fail.Load() != nil || s.canceled.Load() {
			break
		}
		w.explored++
		done++
		if w.explored%pollEvery == 0 && ctx.Err() != nil {
			s.canceled.Store(true)
			break
		}
		children, f := w.process(ctx, rec)
		if f != nil {
			s.fail.CompareAndSwap(nil, f)
			break
		}
		if len(children) > 0 {
			s.active.Add(1)
			my.push(&batch{recs: children})
		}
	}
	// Progress is published per batch, not per pair, and into the
	// worker's own padded slot — a plain store, so the observed game's
	// hot loop stays free of shared-line traffic.
	if w.pubExplored != nil && done > 0 {
		w.pubExplored.Store(int64(w.explored))
	}
	s.active.Add(-1)
}

// traceClause renders a trace for the undecided diagnostic.
func traceClause(trace []string) string {
	if len(trace) == 0 {
		return "at the start pair"
	}
	return "after " + strings.Join(trace, "·")
}

// process runs the local bisimulation-game checks of one pair and
// returns its undiscovered forced successors — the next steal-granular
// batch. A non-nil failure is the distinguishing mismatch (or the
// undecided abort); any children gathered before it are discarded by the
// caller. When a closure walk is interrupted (the game is over: a sibling
// found a mismatch, or ctx was cancelled) process returns neither
// children nor a failure, and the caller's next flag check ends the batch.
func (w *worker) process(ctx context.Context, rec pairRec) ([]pairRec, *failure) {
	s := w.s
	spec := s.spec

	specExt, specEnabled := spec.pairRows(rec.q)

	// Extensions must agree (the initial-partition condition).
	clearWords(w.ext)
	for i, st := range rec.vec {
		if m := s.compExt[i][st]; m != nil {
			orWords(w.ext, m)
		}
	}
	if !equalWords(w.ext, specExt) {
		return nil, &failure{at: rec.id, reason: fmt.Sprintf(
			"the network state has extension {%s}; spec %s has {%s}",
			strings.Join(w.extNames(w.ext), ","), spec.describe(rec.q), strings.Join(w.extNames(specExt), ","))}
	}

	// Every product move must be answered by the spec side. The batch is
	// materialized first (compose.AppendSucc) so the checks below run a
	// plain loop and the surviving children ship out as one deque entry;
	// the mismatch checks abort the loop in the same successor order the
	// streaming enumeration used.
	w.batch.Reset()
	s.e.AppendSucc(rec.vec, &w.batch)
	clearWords(w.direct)
	root := rec.id == s.rootID
	sawTau := false
	var children []pairRec
	for i := 0; i < w.batch.Len(); i++ {
		label := w.batch.Labels[i]
		succ := w.batch.Vec(i)
		q2 := rec.q
		if label == 0 && s.rel != Strong {
			sawTau = true
			if s.rel == Congruence && root {
				// The ≈ᶜ root condition: an initial product tau needs an
				// answering spec =tau=>+ move, not mere standing still.
				q2 = spec.rootTauDelta()
				if q2 == specNoMove {
					return nil, &failure{at: rec.id, reason: "the network starts with a tau move the spec cannot answer with a tau of its own (≈ᶜ root condition)"}
				}
			}
			// Otherwise the spec stands still on a product tau.
		} else {
			setBit(w.direct, label)
			q2 = spec.delta(rec.q, label)
			if q2 == specNoMove {
				return nil, &failure{at: rec.id, reason: fmt.Sprintf("the network performs %q; spec %s cannot", s.labelNames[label], spec.describe(rec.q))}
			}
		}
		if q2 == specUndecided {
			return nil, w.undecidedFailure(rec.id)
		}
		copy(w.key, succ)
		w.key[s.k] = q2
		if id, vec, fresh := s.intern(w.key, rec.id, label); fresh {
			children = append(children, pairRec{id: id, q: q2, vec: vec})
		}
	}

	// The symmetric ≈ᶜ root obligation: a spec-side initial tau needs an
	// answering product tau (p0 ==tau=>+ starts with a strong tau move).
	if s.rel == Congruence && root && spec.rootHasTau() && !sawTau {
		return nil, &failure{at: rec.id, reason: "the spec starts with a tau move; the network has no initial tau to answer it (≈ᶜ root condition)"}
	}

	// Every spec move must be (weakly) matched by the product. The weak
	// games walk the product's tau-closure lazily, but only for the
	// obligations the direct moves left open.
	copy(w.missing, specEnabled)
	andNotWords(w.missing, w.direct)
	if s.rel != Strong && !zeroWords(w.missing) && !w.walkMissing(ctx, rec.vec) {
		return nil, nil
	}
	if !zeroWords(w.missing) {
		how := ""
		if s.rel != Strong {
			how = " weakly"
		}
		return nil, &failure{at: rec.id, reason: fmt.Sprintf(
			"spec %s requires %q; the network cannot%s perform it", spec.describe(rec.q), s.labelNames[firstBit(w.missing)], how)}
	}
	return children, nil
}

// undecidedFailure builds the abort record for a heterogeneous subset,
// pulling the detailed reason recorded by the determinized spec side.
func (w *worker) undecidedFailure(at int32) *failure {
	reason := "a spec subset mixes inequivalent states (essential nondeterminism)"
	if d, ok := w.s.spec.(*detSpec); ok {
		if r := d.heteroReason.Load(); r != nil {
			reason = *r
		}
	}
	return &failure{at: at, reason: reason, undecided: true}
}

// walkMissing clears from w.missing every label weakly enabled from vec:
// a BFS over the product's tau successors (component taus, handshakes and
// tau-result vectors alike), collecting the direct observables of each
// closure member and stopping the moment the obligations are met. The
// walk only ever visits states the main game reaches through the same tau
// edges, so laziness is preserved: an early exit stays early.
//
// Walks are memoized for the whole game in the worker's walk table. Each
// walk root records the labels it is known to enable weakly: its direct
// labels (w.direct, which the caller has filled) plus every obligation
// its walk cleared. A walk that reaches a recorded state subtracts that
// state's labels from its obligations at once, since whatever a closure
// member enables weakly its root does too. The walk therefore expands a
// prefix of the unmemoized BFS order, and a walk that exhausts still
// leaves exactly the obligations outside the weakly enabled set of vec.
//
// The walk polls every pollEvery expanded states, like runBatch, and
// returns false once the game is over (a sibling's mismatch, or ctx
// cancelled); w.missing then means nothing and must not be reported.
func (w *worker) walkMissing(ctx context.Context, vec []int32) bool {
	root := w.walkState(vec)
	orWords(w.knownRow(root), w.direct)
	andNotWords(w.missing, w.knownRow(root))
	if zeroWords(w.missing) {
		return true
	}
	copy(w.oblig, w.missing)
	w.epoch++
	if w.epoch == 0 {
		clear(w.stamp)
		w.epoch = 1
	}
	w.stamp[root] = w.epoch
	w.queue = append(w.queue[:0], root)
	w.depths = append(w.depths[:0], 0)
	done := w.runWalk(ctx)
	// Whatever the walk cleared, the root enables weakly, even if the walk
	// was interrupted.
	andNotWords(w.oblig, w.missing)
	orWords(w.knownRow(root), w.oblig)
	return done
}

// runWalk runs the BFS of walkMissing from its queued root; it returns
// false when interrupted.
func (w *worker) runWalk(ctx context.Context) bool {
	s := w.s
	for i := 0; i < len(w.queue); i++ {
		w.walked++
		if w.walked%pollEvery == 0 && w.stopped(ctx) {
			return false
		}
		d := w.depths[i] + 1
		w.walkBatch.Reset()
		s.e.AppendSucc(w.walk.Key(w.queue[i]), &w.walkBatch)
		for j := 0; j < w.walkBatch.Len(); j++ {
			if l := w.walkBatch.Labels[j]; l != 0 {
				if !hasBit(w.missing, l) {
					continue
				}
				clearBit(w.missing, l)
			} else {
				id := w.walkState(w.walkBatch.Vec(j))
				if w.stamp[id] == w.epoch {
					continue
				}
				w.stamp[id] = w.epoch
				w.queue = append(w.queue, id)
				w.depths = append(w.depths, d)
				if int(d) > w.maxWalk {
					w.maxWalk = int(d)
				}
				andNotWords(w.missing, w.knownRow(id))
			}
			if zeroWords(w.missing) {
				return true
			}
		}
	}
	return true
}

// walkState returns vec's id in the walk table, adding an empty memo row
// for a state seen for the first time.
func (w *worker) walkState(vec []int32) int32 {
	id, fresh := w.walk.Intern(vec)
	if fresh {
		w.known = append(w.known, make([]uint64, w.s.words)...)
		w.stamp = append(w.stamp, 0)
	}
	return id
}

// knownRow returns the labels walk state id is known to enable weakly.
func (w *worker) knownRow(id int32) []uint64 {
	return w.known[int(id)*w.s.words : (int(id)+1)*w.s.words]
}

// stopped reports whether the game is over: a mismatch was published or
// the context is done (which it records for the other workers).
func (w *worker) stopped(ctx context.Context) bool {
	s := w.s
	if s.fail.Load() != nil || s.canceled.Load() {
		return true
	}
	if ctx.Err() != nil {
		s.canceled.Store(true)
		return true
	}
	return false
}

// extNames renders an extension bitset for diagnostics.
func (w *worker) extNames(m []uint64) []string {
	var out []string
	for i, nm := range w.s.extNames {
		if hasBit(m, int32(i)) {
			out = append(out, nm)
		}
	}
	sort.Strings(out)
	return out
}

// --- small bitset and key helpers -----------------------------------

func setBit(b []uint64, i int32)   { b[i>>6] |= 1 << (uint(i) & 63) }
func clearBit(b []uint64, i int32) { b[i>>6] &^= 1 << (uint(i) & 63) }
func hasBit(b []uint64, i int32) bool {
	return b[i>>6]&(1<<(uint(i)&63)) != 0
}

func clearWords(b []uint64) {
	for i := range b {
		b[i] = 0
	}
}

func orWords(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

func andNotWords(dst, src []uint64) {
	for i, w := range src {
		dst[i] &^= w
	}
}

func zeroWords(b []uint64) bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

func equalWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func firstBit(b []uint64) int32 {
	for i, w := range b {
		if w != 0 {
			return int32(i<<6 + bits.TrailingZeros64(w))
		}
	}
	return -1
}
