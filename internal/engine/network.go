package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"ccs/internal/compose"
	"ccs/internal/fsp"
	"ccs/internal/obs"
	"ccs/internal/otf"
	"ccs/internal/vet"
)

// This file is the engine's network-aware query layer: equivalence
// questions about a compose.Network are answered by the
// minimize-then-compose pipeline instead of composing the flat product.
//
// Soundness. Parallel composition, restriction and relabeling — the only
// operators a Network applies — preserve strong equivalence ~ and
// observation congruence ≈ᶜ (both are full CCS congruences), and ≈ᶜ is
// contained in ≈ and hence in every coarser relation of Table II. So each
// component may be replaced by its quotient before the product is taken:
//
//	C[min(P)] rel C[P]   for every network context C and supported rel,
//
// with min = min~ for the strong relations (~ refines ≈ᶜ but a ≈ᶜ-minimum
// is not ~-equivalent to its source, so strong queries need the finer
// quotient) and min = min≈ᶜ for everything else. The quotients come from
// the per-process artifact cache, so a component shared by many networks
// — or by both sides of a query — is minimized exactly once.
//
// Sync vectors preserve the congruence argument: a compose.SyncRule only
// ever matches observable component actions (Validate rejects tau parts),
// and component taus interleave freely around a rendezvous exactly as they
// do around a pairwise handshake. So the standard proof that composition
// preserves ~ and ≈ᶜ — which needs only that tau never participates in a
// synchronization — carries over verbatim to the vector operator, and each
// component may still be quotiented before the product is taken.

// componentQuotient returns the relation-appropriate cached quotient of p.
func (c *Checker) componentQuotient(p *fsp.FSP, rel Relation) (*fsp.FSP, error) {
	switch rel {
	case Strong, Simulation:
		return c.StrongQuotient(p)
	case Weak, Trace, Failure, Congruence, K, Limited:
		return c.CongruenceQuotient(p)
	default:
		return nil, fmt.Errorf("engine: unknown relation %d", rel)
	}
}

// MinimizeNetwork returns a copy of net in which every component process
// is replaced by its cached quotient, sound for deciding rel on the
// composed system (see the file comment). Relabelings, the hidden set and
// the sync table are preserved; the input network is not modified. ctx is
// polled before
// each component quotient — one quotient can be a full Paige-Tarjan run,
// so a cancelled query stops between components rather than minimizing
// the whole network first.
func (c *Checker) MinimizeNetwork(ctx context.Context, net *compose.Network, rel Relation) (*compose.Network, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	out := &compose.Network{
		Name:       net.Name,
		Components: make([]compose.Component, len(net.Components)),
		Hidden:     append([]string(nil), net.Hidden...),
		Sync:       append([]compose.SyncRule(nil), net.Sync...),
	}
	for i, comp := range net.Components {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		min, err := c.componentQuotient(comp.P, rel)
		if err != nil {
			return nil, fmt.Errorf("engine: minimizing component %d: %w", i, err)
		}
		out.Components[i] = compose.Component{P: min, Relabel: comp.Relabel}
	}
	return out, nil
}

// ComposeNetwork materializes net by minimize-then-compose: each component
// is quotiented through the artifact cache and the product of the minima
// is returned. For rel-agnostic callers, Congruence is the safe default
// for every weak-family relation. Both the quotients and the product walk
// itself poll ctx.
func (c *Checker) ComposeNetwork(ctx context.Context, net *compose.Network, rel Relation) (*fsp.FSP, error) {
	min, err := c.MinimizeNetwork(ctx, net, rel)
	if err != nil {
		return nil, err
	}
	return min.FSPCtx(ctx)
}

// CheckNetwork decides whether the composed network is related to spec by
// rel, composing minimized components (k is the bound for the approximant
// relations, as in Query). The composed product enters the artifact cache
// like any process — its structural fingerprint makes repeated checks of
// the same network cheap even though each composition yields a fresh
// pointer. Like Check, CheckNetwork never panics on malformed inputs.
func (c *Checker) CheckNetwork(ctx context.Context, net *compose.Network, spec *fsp.FSP, rel Relation, k int) (eq bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			eq, err = false, fmt.Errorf("engine: %s network query panicked: %v", rel, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return false, err
	}
	sp := obs.TraceFrom(ctx).Start("compose")
	composed, err := c.ComposeNetwork(ctx, net, rel)
	if err != nil {
		sp.End(obs.A("route", "mtc"))
		return false, err
	}
	sp.End(obs.A("route", "mtc"), obs.AInt("product-states", int64(composed.NumStates())))
	return c.Check(ctx, Query{P: composed, Q: spec, Rel: rel, K: k})
}

// Routes a CheckNetworkOTF query can take, recorded in OTFInfo.Route: the
// direct game against a deterministic spec, the determinized subset game
// against a nondeterministic one, or the minimize-then-compose fallback
// for queries the game genuinely cannot play.
const (
	RouteOTF             = "otf"
	RouteOTFDeterminized = "otf-determinized"
	RouteMTCFallback     = "mtc-fallback"
)

// OTFInfo reports how CheckNetworkOTF answered a query.
type OTFInfo struct {
	// OnTheFly is true when the lazy game decided the query; false when
	// the engine fell back to minimize-then-compose.
	OnTheFly bool
	// Route is the route actually taken: RouteOTF, RouteOTFDeterminized
	// or RouteMTCFallback. A silent route change is a correctness trap
	// for anyone benchmarking, so it is always recorded.
	Route string
	// Fallback is why the fallback was taken ("" when OnTheFly): the
	// relation is outside the game, the spec is epsilon-tainted or
	// empty, or the determinized game hit essential nondeterminism
	// (a reachable spec subset mixing inequivalent states).
	Fallback string
	// Exploration stats of the game (OnTheFly only). Pairs is the number
	// of distinct (product, spec-side) pairs interned; Explored counts
	// the pairs whose local checks actually ran (≤ Pairs on early exit);
	// MaxWalk is the deepest tau-closure walk the game ran for a
	// weak-enabledness obligation (walks are memoized, so only those the
	// memo left to run count); Workers, Steals and Utilization describe the
	// work-stealing scheduler's pool size, successful batch steals and
	// mean-over-max per-worker load balance.
	Pairs       int
	Explored    int
	MaxWalk     int
	Workers     int
	Steals      int
	Utilization float64
	// SpecSubsets is the number of spec subsets the determinized game
	// interned (0 on the direct route).
	SpecSubsets int
	// Counterexample is the game's distinguishing trace on an
	// inequivalent verdict (OnTheFly only), with the mismatch described
	// by CounterexampleReason.
	Counterexample       []string
	CounterexampleReason string
	// Diagnostics carries the static-analysis findings (internal/vet) of
	// the original network and spec when the engine had to fall back off
	// the game — the inputs whose nondeterminism or tau structure defeats
	// the game are exactly the ones worth vetting, so the fallback reason
	// travels with the findings that explain the input. Empty on the
	// on-the-fly routes.
	Diagnostics []vet.Diagnostic
}

// CounterexampleString renders the distinguishing scenario like
// otf.Counterexample.String: "after a·tau·b: <reason>". Empty when the
// query carried no counterexample.
func (i OTFInfo) CounterexampleString() string {
	if i.CounterexampleReason == "" {
		return ""
	}
	t := strings.Join(i.Counterexample, "·")
	if t == "" {
		t = "ε"
	}
	return fmt.Sprintf("after %s: %s", t, i.CounterexampleReason)
}

// otfRelation maps an engine relation onto the on-the-fly game's, when
// the game covers it.
func otfRelation(rel Relation) (otf.Rel, bool) {
	switch rel {
	case Strong:
		return otf.Strong, true
	case Weak:
		return otf.Weak, true
	case Congruence:
		return otf.Congruence, true
	default:
		return 0, false
	}
}

// CheckNetworkOTFInfo decides whether the composed network is related to
// spec by rel without materializing the product: components and spec are
// quotiented through the artifact cache exactly as in CheckNetwork, but
// the product of the minima is then explored lazily against the spec by
// the on-the-fly bisimulation game (internal/otf), which returns on the
// first mismatch. Nondeterministic and tau-bearing specs play through
// the game's lazy subset determinization; the engine falls back to the
// minimize-then-compose pipeline only for queries the game genuinely
// cannot play — relations outside Strong/Weak/Congruence, epsilon-tainted
// or empty specs, and specs whose nondeterminism turns out to be
// essential (a reachable subset mixes inequivalent states) — so it
// always agrees with CheckNetwork. The route taken, any fallback reason
// and the game's exploration stats are recorded in the returned OTFInfo.
// Like CheckNetwork, it never panics on malformed inputs.
func (c *Checker) CheckNetworkOTFInfo(ctx context.Context, net *compose.Network, spec *fsp.FSP, rel Relation, k int) (eq bool, info OTFInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			eq, err = false, fmt.Errorf("engine: %s network query panicked: %v", rel, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return false, info, err
	}
	orel, covered := otfRelation(rel)
	switch {
	case spec == nil:
		info.Fallback = "nil spec"
	case !covered:
		info.Fallback = fmt.Sprintf("relation %s not covered by the on-the-fly game", rel)
	default:
		tr := obs.TraceFrom(ctx)
		sp := tr.Start("quotient")
		minSpec, err := c.componentQuotient(spec, rel)
		if err != nil {
			sp.End()
			return false, info, err
		}
		minNet, err := c.MinimizeNetwork(ctx, net, rel)
		sp.End(obs.AInt("components", int64(len(net.Components))))
		if err != nil {
			return false, info, err
		}
		sp = tr.Start("otf-explore")
		res, err := otf.Check(ctx, minNet, minSpec, orel, otf.Options{})
		if res != nil {
			sp.End(
				obs.AInt("pairs", int64(res.Pairs)),
				obs.AInt("explored", int64(res.Explored)),
				obs.AInt("steals", int64(res.Steals)),
				obs.A("determinized", fmt.Sprintf("%t", res.Determinized)),
			)
		} else {
			sp.End(obs.A("outcome", "fallback"))
		}
		var undecided *otf.UndecidedError
		var ineligible *otf.IneligibleError
		switch {
		case err == nil:
			info.OnTheFly = true
			info.Route = RouteOTF
			if res.Determinized {
				info.Route = RouteOTFDeterminized
			}
			info.Pairs = res.Pairs
			info.Explored = res.Explored
			info.MaxWalk = res.MaxWalk
			info.Workers = res.Workers
			info.Steals = res.Steals
			info.Utilization = res.Utilization
			info.SpecSubsets = res.SpecSubsets
			if res.Counterexample != nil {
				info.Counterexample = res.Counterexample.Trace
				info.CounterexampleReason = res.Counterexample.Reason
			}
			return res.Equivalent, info, nil
		case errors.As(err, &undecided):
			// The determinized game met essential nondeterminism: an
			// honest fallback, with the heterogeneous subset on record.
			info.Fallback = undecided.Reason
			info.Diagnostics = fallbackDiagnostics(net, spec)
		case errors.As(err, &ineligible):
			// Epsilon-tainted or empty specs never enter the game.
			info.Fallback = ineligible.Error()
			info.Diagnostics = fallbackDiagnostics(net, spec)
		default:
			return false, info, err
		}
	}
	info.Route = RouteMTCFallback
	eq, err = c.CheckNetwork(ctx, net, spec, rel, k)
	return eq, info, err
}

// fallbackDiagnostics vets the ORIGINAL network and spec for an OTFInfo
// fallback report. The originals matter: minimal ≈ᶜ quotients carry a root
// tau self-loop by construction, which would read as unguarded recursion
// the user never wrote. Vet is advisory here — a malformed network already
// failed MinimizeNetwork, so errors are dropped rather than masking the
// fallback verdict.
func fallbackDiagnostics(net *compose.Network, spec *fsp.FSP) []vet.Diagnostic {
	diags, err := vet.Network(net, spec)
	if err != nil {
		return nil
	}
	return diags
}
