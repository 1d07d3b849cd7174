// Package vet is the static-analysis pass over CCS networks: a diagnostic
// engine that inspects a compose.Network description — the component
// processes, their relabelings, the restriction set, the synchronization
// table, and the optional specification — and reports defects that are
// decidable syntactically,
// before the first product successor is ever expanded.
//
// Every workload layer of this module (one-shot checks, the batch engine,
// minimize-then-compose, the on-the-fly game, `ccs serve`) burns
// state-space exploration on its inputs; vet catches the inputs whose
// verdicts are foregone for trivial reasons — a restricted channel that can
// never handshake, a component wired so it contributes only deadlock, a
// spec whose sort the network cannot reach — plus the divergence defects
// the divergence-blind ≈/≈ᶜ silently forgive. Analyzers are sound in the
// flagged direction: a dead-sync finding means the handshake provably never
// fires (the differential suite pins this against the flat product); the
// converse is not promised, since component-level reachability
// overapproximates product reachability.
//
// The entry point is Network. Diagnostics are typed (code + severity),
// positioned (component index / spec / channel), and JSON-encodable, so the
// CLI (`ccs vet`), the request schema (Report.Diagnostics) and the HTTP
// server (POST /v1/vet) all speak the same finding.
package vet

import (
	"fmt"
	"sort"
	"strings"

	"ccs/internal/compose"
	"ccs/internal/fsp"
)

// Diagnostic codes, most specific first. Where two analyzers would explain
// the same defect, only the more specific code is emitted: a
// restriction-sink component suppresses per-channel dead-sync findings on
// the channels only it uses, an unguarded start suppresses the generic
// tau-divergence for that process, and a hide of a relabeled-away channel
// reports relabel-restricted rather than undefined-channel.
const (
	// CodeDeadSync: a restricted channel whose send and receive sides
	// never both occur across distinct components, and which no live
	// synchronization vector uses as a part — the handshake can never
	// fire, and every transition waiting on it is dead.
	CodeDeadSync = "dead-sync"
	// CodeRestrictionSink: every observable action of a component is
	// restricted away and none has a complementary partner in another
	// component or a live synchronization vector to join; the component
	// contributes only deadlock to the product.
	CodeRestrictionSink = "restriction-sink"
	// CodeRelabelCollision: a relabeling maps two distinct action names
	// onto one target, merging previously distinct handshakes.
	CodeRelabelCollision = "relabel-collision"
	// CodeRelabelRestricted: a relabeling's source is a restricted
	// channel. Restriction applies to the post-relabeling network, so the
	// hide no longer reaches this component's channel — almost always a
	// mis-wiring of (P\L)[f] vs (P[f])\L.
	CodeRelabelRestricted = "relabel-restricted"
	// CodeSortMismatch: the spec's reachable observable alphabet and the
	// network's observable sort after hiding disagree. A spec-side action
	// the network can never perform is a proof of inequivalence for every
	// trace-containing relation; a network-side action outside the spec's
	// sort is a warning (component reachability overapproximates the
	// product's).
	CodeSortMismatch = "sort-mismatch"
	// CodeTauDivergence: a tau-cycle is reachable from the root — the
	// process can diverge, which ≈ and ≈ᶜ are blind to.
	CodeTauDivergence = "tau-divergence"
	// CodeUnguardedStart: the start state itself lies on a tau-cycle, the
	// FSP image of unguarded recursion (X = X + ...): the process can
	// diverge before its first observable action.
	CodeUnguardedStart = "unguarded-start"
	// CodeUndefinedChannel: a hide or relabel directive names a channel no
	// component carries — the usual shape of a typo'd wiring.
	CodeUndefinedChannel = "undefined-channel"
	// CodeUnsatisfiableVector: a synchronization-table rule that can never
	// fire — a ghost part no component ever performs, or more parts than
	// there are distinct components able to supply them (a rendezvous takes
	// one part per component, so satisfiability is a bipartite matching
	// between parts and the components whose reachable sort carries them).
	// Also emitted, as a warning, for a rule whose visible result is
	// restricted: restriction prunes such a vector wholesale at composition
	// time, which is almost always a mis-wiring of "hide the parts" as
	// "hide the result".
	CodeUnsatisfiableVector = "unsatisfiable-vector"
)

// Severities of a Diagnostic. Errors are findings the analysis can prove
// defeat the query (or the component); warnings are defects of intent the
// equivalences cannot see or that depend on product reachability.
const (
	SeverityError   = "error"
	SeverityWarning = "warning"
)

// Diagnostic is one vet finding: a machine-readable code and severity, a
// position (component index, spec marker, channel), and the human-readable
// message. The JSON form is part of the request schema: Report.Diagnostics
// and the /v1/vet response body carry exactly this encoding.
type Diagnostic struct {
	Code     string `json:"code"`
	Severity string `json:"severity"`
	// Component is the 1-based index of the component the finding is
	// about; 0 for network-level and spec findings.
	Component int `json:"component,omitempty"`
	// Spec marks findings about the specification process.
	Spec bool `json:"spec,omitempty"`
	// Channel is the action or channel name the finding is about, when
	// there is one.
	Channel string `json:"channel,omitempty"`
	Message string `json:"message"`
}

// String renders the diagnostic as the one-line form every text front end
// prints: severity[code] position: message.
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s]", d.Severity, d.Code)
	switch {
	case d.Spec:
		b.WriteString(" spec")
	case d.Component > 0:
		fmt.Fprintf(&b, " component %d", d.Component)
	}
	if d.Channel != "" {
		fmt.Fprintf(&b, " channel %q", d.Channel)
	}
	b.WriteString(": ")
	b.WriteString(d.Message)
	return b.String()
}

// HasErrors reports whether any diagnostic carries SeverityError.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == SeverityError {
			return true
		}
	}
	return false
}

// Network runs every analyzer over the network and the optional spec (nil
// skips the spec-side analyzers, including sort-mismatch) and returns the
// findings in deterministic order. The error is non-nil only when the
// network description itself is malformed (compose.Network.Validate);
// defects of a well-formed network are diagnostics, never errors.
func Network(net *compose.Network, spec *fsp.FSP) ([]Diagnostic, error) {
	e, err := net.Expand()
	if err != nil {
		return nil, err
	}
	a := &analysis{net: net, spec: spec, e: e}
	a.prepare()
	a.vetRelabelings()
	a.vetHidden()
	a.vetSyncTable()
	a.vetDivergence()
	a.vetSort()
	return a.diags, nil
}

// analysis carries the shared precomputation: the network's dense-label
// expansion, the per-component reachable-occurrence sets, and the sink and
// dead-channel verdicts the suppression rules need.
type analysis struct {
	net  *compose.Network
	spec *fsp.FSP
	e    *compose.Expansion

	labelID map[string]int32 // dense id by post-relabel name
	occurs  []map[int32]bool // [component] labels on reachable arcs
	sink    []bool           // [component] restriction-sink verdict

	fates   []ruleFate     // [sync rule] satisfiability verdict
	vecPart map[int32]bool // labels that are parts of a live sync rule

	diags []Diagnostic
}

// ruleFate is the sort-level verdict on one synchronization rule.
type ruleFate struct {
	ghosts  []string // parts no component ever performs, deduplicated
	matched int      // size of the parts-to-components matching
	pruned  bool     // visible result restricted away at Expand time
}

// live: the rule can fire at the sort level and survives restriction —
// exactly the rules whose participation counts as a synchronization
// partner for dead-sync and restriction-sink.
func (f ruleFate) live(parts int) bool {
	return len(f.ghosts) == 0 && f.matched == parts && !f.pruned
}

func (a *analysis) emit(d Diagnostic) { a.diags = append(a.diags, d) }

func (a *analysis) prepare() {
	a.labelID = make(map[string]int32, len(a.e.Labels))
	for id, name := range a.e.Labels {
		a.labelID[name] = int32(id)
	}
	k := a.e.K()
	a.occurs = make([]map[int32]bool, k)
	for i := 0; i < k; i++ {
		a.occurs[i] = reachableLabels(a.e.Trans[i], a.e.Starts[i])
	}
	a.prepareSync()
	a.sink = make([]bool, k)
	for i := 0; i < k; i++ {
		a.sink[i] = a.isSink(i)
	}
}

// prepareSync decides the fate of every synchronization rule and collects
// the part labels of the live ones, which the restriction analyzers treat
// as synchronization partners.
func (a *analysis) prepareSync() {
	a.fates = make([]ruleFate, len(a.net.Sync))
	a.vecPart = map[int32]bool{}
	for r, rule := range a.net.Sync {
		f := &a.fates[r]
		ids := make([]int32, 0, len(rule.Parts))
		seenGhost := map[string]bool{}
		for _, p := range rule.Parts {
			l, ok := a.labelID[p]
			if !ok || !a.anyOccurs(l) {
				if !seenGhost[p] {
					seenGhost[p] = true
					f.ghosts = append(f.ghosts, p)
				}
				continue
			}
			ids = append(ids, l)
		}
		sort.Strings(f.ghosts)
		f.matched = a.matchParts(ids)
		if !rule.Tau() {
			if res, ok := a.labelID[rule.Result]; ok && a.e.Hidden[res] {
				f.pruned = true
			}
		}
		if f.live(len(rule.Parts)) {
			for _, l := range ids {
				a.vecPart[l] = true
			}
		}
	}
}

// anyOccurs reports whether any component's reachable sort carries l.
func (a *analysis) anyOccurs(l int32) bool {
	for i := range a.occurs {
		if a.occurs[i][l] {
			return true
		}
	}
	return false
}

// matchParts computes the maximum bipartite matching between the rule's
// parts and the components whose reachable sort carries them — a
// rendezvous consumes one part per distinct component, so the rule is
// sort-level satisfiable iff every part is matched (Hall's condition,
// decided by augmenting paths; both sides are tiny).
func (a *analysis) matchParts(parts []int32) int {
	k := len(a.occurs)
	compTo := make([]int, k)
	for i := range compTo {
		compTo[i] = -1
	}
	var try func(p int, seen []bool) bool
	try = func(p int, seen []bool) bool {
		for j := 0; j < k; j++ {
			if seen[j] || !a.occurs[j][parts[p]] {
				continue
			}
			seen[j] = true
			if compTo[j] == -1 || try(compTo[j], seen) {
				compTo[j] = p
				return true
			}
		}
		return false
	}
	matched := 0
	for p := range parts {
		if try(p, make([]bool, k)) {
			matched++
		}
	}
	return matched
}

// vetSyncTable reports the unsatisfiable-vector findings prepared by
// prepareSync: ghost parts and matching deficits as errors, a restricted
// visible result as a warning (the pruning is the documented semantics,
// but hiding the result instead of the parts is almost always a typo).
func (a *analysis) vetSyncTable() {
	for r, rule := range a.net.Sync {
		f := a.fates[r]
		switch {
		case len(f.ghosts) > 0:
			a.emit(Diagnostic{
				Code: CodeUnsatisfiableVector, Severity: SeverityError,
				Channel: f.ghosts[0],
				Message: fmt.Sprintf("sync vector [%s] can never fire: no component ever performs %s", rule, quoteList(f.ghosts)),
			})
		case f.matched < len(rule.Parts):
			a.emit(Diagnostic{
				Code: CodeUnsatisfiableVector, Severity: SeverityError,
				Message: fmt.Sprintf("sync vector [%s] can never fire: it needs %d distinct components (one per part), but at most %d can jointly supply the parts",
					rule, len(rule.Parts), f.matched),
			})
		case f.pruned:
			a.emit(Diagnostic{
				Code: CodeUnsatisfiableVector, Severity: SeverityWarning,
				Channel: rule.Result,
				Message: fmt.Sprintf("sync vector [%s] is pruned by the restriction: its visible result %q is hidden, which drops the whole vector — to internalize the rendezvous, make the result tau or hide only the parts",
					rule, rule.Result),
			})
		}
	}
}

// reachableLabels walks the component's own transition graph (all arcs —
// component reachability soundly overapproximates the product's) and
// collects the non-tau labels on reachable arcs.
func reachableLabels(trans [][]compose.Step, start int32) map[int32]bool {
	seen := make([]bool, len(trans))
	stack := []int32{start}
	seen[start] = true
	occ := map[int32]bool{}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, arc := range trans[s] {
			if arc.Label != 0 {
				occ[arc.Label] = true
			}
			if !seen[arc.To] {
				seen[arc.To] = true
				stack = append(stack, arc.To)
			}
		}
	}
	return occ
}

// hasPartner reports whether any component other than i can perform the
// complement of label l, i.e. whether a handshake on l is possible at the
// level of component sorts.
func (a *analysis) hasPartner(i int, l int32) bool {
	co := a.e.CoOf[l]
	if co < 0 {
		return false
	}
	for j := range a.occurs {
		if j != i && a.occurs[j][co] {
			return true
		}
	}
	return false
}

// isSink decides restriction-sink for component i: it has observable
// actions, every one of them is restricted, and none can handshake or
// serve as the part of a live synchronization vector.
func (a *analysis) isSink(i int) bool {
	if len(a.occurs[i]) == 0 {
		return false
	}
	for l := range a.occurs[i] {
		if !a.e.Hidden[l] || a.hasPartner(i, l) || a.vecPart[l] {
			return false
		}
	}
	return true
}

// baseName strips a co-name back to its base channel.
func baseName(name string) string {
	if b, isCo := strings.CutSuffix(name, "'"); isCo {
		return b
	}
	return name
}

// hiddenBases returns the deduplicated base names of the restriction set
// in first-appearance order.
func (a *analysis) hiddenBases() []string {
	var out []string
	seen := map[string]bool{}
	for _, h := range a.net.Hidden {
		b := baseName(h)
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// hiddenBaseSet is hiddenBases as a set.
func (a *analysis) hiddenBaseSet() map[string]bool {
	set := map[string]bool{}
	for _, h := range a.net.Hidden {
		set[baseName(h)] = true
	}
	return set
}

// sortedKeys returns the map's keys sorted, for deterministic iteration
// over relabel maps.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// vetRelabelings runs the per-component relabel analyzers:
// undefined-channel on sources absent from the component's alphabet,
// relabel-restricted on sources the network also hides, and
// relabel-collision on distinct sources sharing one target.
func (a *analysis) vetRelabelings() {
	hidden := a.hiddenBaseSet()
	for i, comp := range a.net.Components {
		alpha := comp.P.Alphabet()
		has := func(name string) bool {
			act, ok := alpha.Lookup(name)
			return ok && act != fsp.Tau
		}
		for _, src := range sortedKeys(comp.Relabel) {
			// An entry for a base name also carries its co-name (compose
			// transports it), so the entry is effective if either spelling
			// is in the alphabet; an explicit co-name entry covers only
			// itself.
			effective := has(src)
			if !effective && !strings.HasSuffix(src, "'") {
				effective = has(fsp.CoName(src))
			}
			if !effective {
				a.emit(Diagnostic{
					Code: CodeUndefinedChannel, Severity: SeverityError,
					Component: i + 1, Channel: src,
					Message: fmt.Sprintf("relabeling %q -> %q: the component's alphabet has no %q (or %q); likely a typo'd wiring",
						src, comp.Relabel[src], src, fsp.CoName(src)),
				})
				continue
			}
			if hidden[baseName(src)] {
				a.emit(Diagnostic{
					Code: CodeRelabelRestricted, Severity: SeverityWarning,
					Component: i + 1, Channel: src,
					Message: fmt.Sprintf("relabels restricted channel %q to %q: restriction applies after relabeling, so the hide of %q no longer reaches this component",
						src, comp.Relabel[src], baseName(src)),
				})
			}
		}
		a.vetCollisions(i, comp)
	}
}

// vetCollisions reports, once per base target name, the groups of distinct
// alphabet actions a component's relabeling merges onto one name.
func (a *analysis) vetCollisions(i int, comp compose.Component) {
	if len(comp.Relabel) == 0 {
		return
	}
	// Effective post-relabel name of every observable alphabet action,
	// mirroring compose.Expand: an explicit entry wins, a base-name entry
	// transports to the co-name, everything else is identity.
	targets := map[string][]string{}
	alpha := comp.P.Alphabet()
	for _, act := range alpha.Observable() {
		name := alpha.Name(act)
		to := name
		if t, ok := comp.Relabel[name]; ok {
			to = t
		} else if base, isCo := strings.CutSuffix(name, "'"); isCo {
			if t, ok := comp.Relabel[base]; ok {
				to = fsp.CoName(t)
			}
		}
		targets[to] = append(targets[to], name)
	}
	var collided []string
	for to, sources := range targets {
		if len(sources) > 1 {
			collided = append(collided, to)
		}
	}
	sort.Strings(collided)
	// A base-name collision mirrors onto the co-names; report the base
	// group only.
	reported := map[string]bool{}
	for _, to := range collided {
		b := baseName(to)
		if reported[b] {
			continue
		}
		reported[b] = true
		group := targets[to]
		sort.Strings(group)
		a.emit(Diagnostic{
			Code: CodeRelabelCollision, Severity: SeverityWarning,
			Component: i + 1, Channel: to,
			Message: fmt.Sprintf("relabeling maps distinct actions %s onto one name %q, merging their handshakes",
				strings.Join(group, ", "), to),
		})
	}
}

// vetHidden runs the restriction analyzers: restriction-sink per
// component, then dead-sync and undefined-channel per hidden channel, with
// the documented suppressions.
func (a *analysis) vetHidden() {
	for i := range a.net.Components {
		if !a.sink[i] {
			continue
		}
		var names []string
		for l := range a.occurs[i] {
			names = append(names, a.e.Labels[l])
		}
		sort.Strings(names)
		a.emit(Diagnostic{
			Code: CodeRestrictionSink, Severity: SeverityError,
			Component: i + 1,
			Message: fmt.Sprintf("every observable action (%s) is restricted and none can handshake; the component contributes only deadlock",
				strings.Join(names, ", ")),
		})
	}

	relabelSources := map[string]bool{}
	for _, comp := range a.net.Components {
		for src := range comp.Relabel {
			relabelSources[baseName(src)] = true
		}
	}

	// Names the synchronization table speaks for: hiding a rule's visible
	// result is deliberate pruning (vetSyncTable warns about it), and a
	// hidden ghost part is already the rule's unsatisfiable-vector error —
	// neither is an undefined-channel typo.
	syncNames := map[string]bool{}
	for _, rule := range a.net.Sync {
		for _, p := range rule.Parts {
			syncNames[baseName(p)] = true
		}
		if !rule.Tau() {
			syncNames[baseName(rule.Result)] = true
		}
	}

	for _, h := range a.hiddenBases() {
		send, sendOK := a.labelID[h]
		recv, recvOK := a.labelID[fsp.CoName(h)]
		var users, senders, receivers []int
		for i := range a.occurs {
			inSend := sendOK && a.occurs[i][send]
			inRecv := recvOK && a.occurs[i][recv]
			if inSend {
				senders = append(senders, i)
			}
			if inRecv {
				receivers = append(receivers, i)
			}
			if inSend || inRecv {
				users = append(users, i)
			}
		}
		if len(users) == 0 {
			// The channel occurs nowhere. If some component relabels it
			// away, relabel-restricted already explains the situation; if
			// the sync table names it, the vector analyzers do.
			if !relabelSources[h] && !syncNames[h] {
				a.emit(Diagnostic{
					Code: CodeUndefinedChannel, Severity: SeverityError,
					Channel: h,
					Message: fmt.Sprintf("hide %q: no component carries the channel after relabeling; likely a typo'd wiring", h),
				})
			}
			continue
		}
		if a.handshakePossible(senders, receivers) {
			continue
		}
		// A live sync vector over either side keeps the channel alive even
		// without a pairwise partner: the rendezvous matches part names
		// literally, hidden or not.
		if (sendOK && a.vecPart[send]) || (recvOK && a.vecPart[recv]) {
			continue
		}
		// Dead channel. Skip it when every user is a restriction-sink —
		// the sink finding is the more specific explanation.
		allSinks := true
		for _, i := range users {
			if !a.sink[i] {
				allSinks = false
				break
			}
		}
		if allSinks {
			continue
		}
		a.emit(Diagnostic{
			Code: CodeDeadSync, Severity: SeverityError,
			Channel: h,
			Message: a.deadSyncMessage(h, senders, receivers),
		})
	}
}

// handshakePossible reports whether some sender and some distinct receiver
// exist — the sort-level condition for the pairwise handshake to ever fire.
func (a *analysis) handshakePossible(senders, receivers []int) bool {
	for _, i := range senders {
		for _, j := range receivers {
			if i != j {
				return true
			}
		}
	}
	return false
}

func (a *analysis) deadSyncMessage(h string, senders, receivers []int) string {
	oneBased := func(xs []int) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = fmt.Sprintf("%d", x+1)
		}
		return out
	}
	switch {
	case len(receivers) == 0:
		return fmt.Sprintf("restricted channel %q can never synchronize: only the %q side occurs (component %s); %q occurs in no component",
			h, h, strings.Join(oneBased(senders), ", "), fsp.CoName(h))
	case len(senders) == 0:
		return fmt.Sprintf("restricted channel %q can never synchronize: only the %q side occurs (component %s); %q occurs in no component",
			h, fsp.CoName(h), strings.Join(oneBased(receivers), ", "), h)
	default:
		// Both sides occur, necessarily inside one single component.
		return fmt.Sprintf("restricted channel %q can never synchronize: both sides occur only inside component %s, and handshakes are pairwise between distinct components",
			h, strings.Join(oneBased(senders), ", "))
	}
}

// vetDivergence runs unguarded-start and tau-divergence over every
// component and the spec.
func (a *analysis) vetDivergence() {
	for i, comp := range a.net.Components {
		a.vetProcessDivergence(comp.P, i+1, false)
	}
	if a.spec != nil {
		a.vetProcessDivergence(a.spec, 0, true)
	}
}

func (a *analysis) vetProcessDivergence(f *fsp.FSP, component int, spec bool) {
	subject := "the component"
	if spec {
		subject = "the spec"
	}
	if tauCycleThroughStart(f) {
		a.emit(Diagnostic{
			Code: CodeUnguardedStart, Severity: SeverityWarning,
			Component: component, Spec: spec,
			Message: fmt.Sprintf("the start state lies on a tau-cycle (unguarded recursion): %s can diverge before any observable action, which ≈/≈ᶜ cannot see", subject),
		})
		return // the generic tau-divergence finding would be redundant
	}
	if s, ok := reachableTauCycle(f); ok {
		a.emit(Diagnostic{
			Code: CodeTauDivergence, Severity: SeverityWarning,
			Component: component, Spec: spec,
			Message: fmt.Sprintf("a tau-cycle is reachable from the root (state %d): %s can diverge, which ≈/≈ᶜ cannot see", s, subject),
		})
	}
}

// tauCycleThroughStart reports whether the start state can tau-reach
// itself in one or more tau steps.
func tauCycleThroughStart(f *fsp.FSP) bool {
	start := f.Start()
	seen := make([]bool, f.NumStates())
	var stack []fsp.State
	push := func(s fsp.State) {
		for _, arc := range f.Arcs(s) {
			if arc.Act != fsp.Tau {
				continue
			}
			if arc.To == start {
				stack = append(stack, arc.To) // sentinel; detected below
			}
			if !seen[arc.To] {
				seen[arc.To] = true
				stack = append(stack, arc.To)
			}
		}
	}
	push(start)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s == start {
			return true
		}
		push(s)
	}
	return false
}

// reachableTauCycle reports a state on a tau-cycle reachable (by any
// actions) from the root, when one exists. fsp.Divergent marks every state
// that can tau-reach a cycle; the state reported here is one actually on a
// cycle: divergent with a tau-successor that is divergent and can return.
func reachableTauCycle(f *fsp.FSP) (fsp.State, bool) {
	div := fsp.Divergent(f)
	reach := f.Reachable()
	for s := 0; s < f.NumStates(); s++ {
		if !reach[s] || !div[s] {
			continue
		}
		if onTauCycle(f, fsp.State(s)) {
			return fsp.State(s), true
		}
	}
	return 0, false
}

// onTauCycle reports whether s can tau-reach itself in >= 1 steps.
func onTauCycle(f *fsp.FSP, s fsp.State) bool {
	seen := make(map[fsp.State]bool)
	stack := []fsp.State{}
	expand := func(from fsp.State) bool {
		for _, arc := range f.Arcs(from) {
			if arc.Act != fsp.Tau {
				continue
			}
			if arc.To == s {
				return true
			}
			if !seen[arc.To] {
				seen[arc.To] = true
				stack = append(stack, arc.To)
			}
		}
		return false
	}
	if expand(s) {
		return true
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if expand(cur) {
			return true
		}
	}
	return false
}

// vetSort compares the spec's reachable observable alphabet with the
// network's observable sort after hiding.
func (a *analysis) vetSort() {
	if a.spec == nil {
		return
	}
	netSort := map[string]bool{}
	for i := range a.occurs {
		for l := range a.occurs[i] {
			if !a.e.Hidden[l] {
				netSort[a.e.Labels[l]] = true
			}
		}
	}
	// A live sync vector with a visible result contributes that result to
	// the product's sort even when every part is hidden.
	for r, rule := range a.net.Sync {
		if !rule.Tau() && a.fates[r].live(len(rule.Parts)) {
			netSort[rule.Result] = true
		}
	}
	specSort := map[string]bool{}
	reach := a.spec.Reachable()
	alpha := a.spec.Alphabet()
	for s := 0; s < a.spec.NumStates(); s++ {
		if !reach[s] {
			continue
		}
		for _, arc := range a.spec.Arcs(fsp.State(s)) {
			if arc.Act != fsp.Tau {
				specSort[alpha.Name(arc.Act)] = true
			}
		}
	}
	specOnly := sortedDiff(specSort, netSort)
	netOnly := sortedDiff(netSort, specSort)
	switch {
	case len(specOnly) > 0:
		msg := fmt.Sprintf("the spec performs %s, which the network can never perform — trivially inequivalent for every trace-containing relation",
			quoteList(specOnly))
		if len(netOnly) > 0 {
			msg += fmt.Sprintf("; the network also has %s outside the spec's sort", quoteList(netOnly))
		}
		a.emit(Diagnostic{Code: CodeSortMismatch, Severity: SeverityError, Message: msg})
	case len(netOnly) > 0:
		a.emit(Diagnostic{
			Code: CodeSortMismatch, Severity: SeverityWarning,
			Message: fmt.Sprintf("the network's observable sort has %s outside the spec's reachable alphabet; if any of them fires, the verdict is inequivalent for trivial reasons",
				quoteList(netOnly)),
		})
	}
}

func sortedDiff(a, b map[string]bool) []string {
	var out []string
	for name := range a {
		if !b[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func quoteList(names []string) string {
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = fmt.Sprintf("%q", n)
	}
	return strings.Join(quoted, ", ")
}
