package main

import (
	"fmt"
	"math/rand"

	"ccs"
	"ccs/internal/compose"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

// This file builds the benchmark's inputs. Every verdict is known by
// construction, never by running the checker under test:
//
//   - permute renumbers a process by a bijection: the copy is isomorphic,
//     hence equivalent to the original under every relation;
//   - fluff adds tau-twin arcs and non-root refresh twins: the copy is
//     observationally equivalent (≈, and ≈ᶜ since the root gains no tau),
//     hence trace equivalent, but in general not strongly equivalent;
//   - mark adds a fresh action on a reachable state: the copy has a trace
//     the original lacks, so it is inequivalent under every relation;
//   - gallery entries (internal/gen) keep their documented verdicts.

// markerAction is the fresh action mark adds. The generators name actions
// a, b, c, … and channels c0, c1, …, so it never collides; mark checks.
const markerAction = "mark"

// copyProcess rebuilds p with state s renamed to perm[s], calling extra on
// the builder before it is frozen so callers can add states and arcs.
func copyProcess(p *fsp.FSP, perm []fsp.State, extra func(b *fsp.Builder)) *fsp.FSP {
	b := fsp.NewBuilder(p.Name())
	b.AddStates(p.NumStates())
	b.SetStart(perm[p.Start()])
	alpha, vars := p.Alphabet(), p.Vars()
	for s := 0; s < p.NumStates(); s++ {
		for _, a := range p.Arcs(fsp.State(s)) {
			b.ArcName(perm[s], alpha.Name(a.Act), perm[a.To])
		}
		for _, id := range p.Ext(fsp.State(s)).IDs() {
			b.Extend(perm[s], vars.Name(id))
		}
	}
	if extra != nil {
		extra(b)
	}
	return b.MustBuild()
}

// identity is the permutation that keeps every state.
func identity(n int) []fsp.State {
	perm := make([]fsp.State, n)
	for i := range perm {
		perm[i] = fsp.State(i)
	}
	return perm
}

// permutation draws a seeded bijection of [0, n).
func permutation(rng *rand.Rand, n int) []fsp.State {
	perm := make([]fsp.State, n)
	for i, v := range rng.Perm(n) {
		perm[i] = fsp.State(v)
	}
	return perm
}

// permute returns an isomorphic copy of p under a seeded renumbering.
func permute(rng *rand.Rand, p *fsp.FSP) *fsp.FSP {
	return copyProcess(p, permutation(rng, p.NumStates()), nil)
}

// extNames lists the extension variables of state s by name.
func extNames(p *fsp.FSP, s fsp.State) []string {
	var out []string
	for _, id := range p.Ext(s).IDs() {
		out = append(out, p.Vars().Name(id))
	}
	return out
}

// fluff returns a copy of p that is ≈ and ≈ᶜ to it. About a fifth of the
// observable arcs s -a-> t gain a twin s -a-> t' with t' -tau-> t, and about
// a fifth of the non-start states s gain a refresh twin r with
// s -tau-> r -tau-> s; every new state copies the extension of the state it
// shadows, so it is weakly equivalent to it.
func fluff(rng *rand.Rand, p *fsp.FSP) *fsp.FSP {
	return copyProcess(p, identity(p.NumStates()), func(b *fsp.Builder) {
		for s := 0; s < p.NumStates(); s++ {
			from := fsp.State(s)
			for _, a := range p.Arcs(from) {
				if a.Act == fsp.Tau || rng.Intn(5) != 0 {
					continue
				}
				twin := b.AddState()
				b.Extend(twin, extNames(p, a.To)...)
				b.ArcName(from, p.Alphabet().Name(a.Act), twin)
				b.ArcName(twin, fsp.TauName, a.To)
			}
			if from != p.Start() && rng.Intn(5) == 0 {
				r := b.AddState()
				b.Extend(r, extNames(p, from)...)
				b.ArcName(from, fsp.TauName, r)
				b.ArcName(r, fsp.TauName, from)
			}
		}
	})
}

// mark returns a copy of p with a markerAction self-loop on a seeded
// reachable state, and that state.
func mark(rng *rand.Rand, p *fsp.FSP) (*fsp.FSP, fsp.State) {
	if _, ok := p.Alphabet().Lookup(markerAction); ok {
		panic(fmt.Sprintf("process %q already uses the marker action", p.Name()))
	}
	var reach []fsp.State
	for s, ok := range p.Reachable() {
		if ok {
			reach = append(reach, fsp.State(s))
		}
	}
	at := reach[rng.Intn(len(reach))]
	return copyProcess(p, identity(p.NumStates()), func(b *fsp.Builder) {
		b.ArcName(at, markerAction, at)
	}), at
}

// item is one request of a workload's stream with the verdict it must get.
type item struct {
	req  ccs.CheckRequest
	want bool
	// body holds the request's JSON, untraced and traced (encodeBodies).
	body [2][]byte
}

// source renders a process as an inline request source.
func source(p *fsp.FSP) string { return ccs.FormatProcess(p) }

// pairRelations is the relation rotation of the pair pools: the
// derivation-heavy bisimulation family at 60–240 states, trace and
// failure (PSPACE-complete) at ≤ 30.
var pairRelations = []string{"weak", "strong", "congruence", "trace", "failure"}

// pairBase draws the i-th base process of a pool. Sizes and tau shares are
// stratified over i rather than drawn.
func pairBase(rng *rand.Rand, i, poolSize int, rel string) *fsp.FSP {
	frac := float64((i*37)%poolSize) / float64(poolSize)
	switch rel {
	case "failure":
		n := 10 + int(frac*20)
		return gen.RandomRestricted(rng, n, 3*n, 3)
	case "trace":
		n := 10 + int(frac*20)
		return gen.Random(rng, n, 3*n, 3, 0.2+0.3*frac)
	default:
		n := 60 + int(frac*180)
		return gen.Random(rng, n, 3*n, 4, 0.2+0.3*frac)
	}
}

// pairVariant returns Q for base P and whether P rel Q holds: an even
// variant is equivalent (a permuted copy, fluffed where rel is in the weak
// family), an odd one a permuted copy with a marker.
func pairVariant(rng *rand.Rand, p *fsp.FSP, rel string, variant int) (*fsp.FSP, bool) {
	q := permute(rng, p)
	if variant%2 == 1 {
		q, _ = mark(rng, q)
		return q, false
	}
	switch rel {
	case "weak", "congruence", "trace":
		q = fluff(rng, q)
	}
	return q, true
}

// baseSeed fixes the base processes of the pair pools. The quotient size
// of a random process near the tau-percolation threshold ranges over 5x,
// so bases drawn from the run's seed made the seed, not the code, move the
// pair workloads' means; the run's seed draws every text instead: a
// permutation of each base and each variant.
const baseSeed = 1983

// pairPool returns bases × variants pair requests.
func pairPool(rng *rand.Rand, bases, variants int) []item {
	baseRng := rand.New(rand.NewSource(baseSeed))
	var out []item
	for i := 0; i < bases; i++ {
		rel := pairRelations[i%len(pairRelations)]
		p := permute(rng, pairBase(baseRng, i, bases, rel))
		ps := source(p)
		for v := 0; v < variants; v++ {
			q, want := pairVariant(rng, p, rel, v)
			out = append(out, item{req: ccs.NewCheck(rel, ps, source(q)), want: want})
		}
	}
	return out
}

// galleryPairs returns the Fig. 2 gallery under trace, failure and weak,
// with the verdicts the gallery documents.
func galleryPairs() []item {
	var out []item
	for _, g := range gen.Fig2Gallery() {
		p, q := source(g.P), source(g.Q)
		out = append(out,
			item{req: ccs.NewCheck("trace", p, q), want: g.Trace},
			item{req: ccs.NewCheck("failure", p, q), want: g.Failure},
			item{req: ccs.NewCheck("weak", p, q), want: g.Weak})
	}
	return out
}

// netEntry is one network of a catalogue with its known verdict under
// relation and the number of times it appears per stream cycle.
type netEntry struct {
	name     string
	net      *compose.Network
	spec     *fsp.FSP
	relation string
	want     bool
	weight   int
}

// networkRequest renders a network as a request, with every distinct
// component process permuted once (instances of one cell keep sharing one
// text) and the spec permuted: isomorphic, so the verdict is unchanged.
func networkRequest(rng *rand.Rand, e netEntry, route string) ccs.CheckRequest {
	texts := map[*fsp.FSP]string{}
	nr := ccs.NetworkRequest{Name: e.name, Hide: e.net.Hidden, Spec: source(permute(rng, e.spec))}
	for _, c := range e.net.Components {
		t, ok := texts[c.P]
		if !ok {
			t = source(permute(rng, c.P))
			texts[c.P] = t
		}
		nr.Components = append(nr.Components, ccs.NetworkComponentRef{Process: t, Relabel: c.Relabel})
	}
	for _, s := range e.net.Sync {
		nr.Sync = append(nr.Sync, ccs.NetworkSyncRule{Parts: s.Parts, Result: s.Result})
	}
	return ccs.NewNetworkCheck(e.relation, nr, ccs.WithRoute(route))
}

// weak makes a weighted ≈ catalogue entry.
func weak(name string, net *compose.Network, spec *fsp.FSP, want bool, weight int) netEntry {
	return netEntry{name: name, net: net, spec: spec, relation: "weak", want: want, weight: weight}
}

// relay is the n-stage relay against the n-place buffer: ≈ by the buffer law.
func relay(n, weight int) netEntry {
	return weak(fmt.Sprintf("relay-%d", n), gen.RelayNetwork(n, 2), gen.CounterSpec(n), true, weight)
}

// withProtocols appends the protocol gallery, once each, with its verdicts.
func withProtocols(cat []netEntry) []netEntry {
	for _, g := range gen.ProtocolGallery() {
		cat = append(cat, weak(g.Name, g.Net, g.Spec, g.Weak, 1))
	}
	return cat
}

// otfCatalogue is the network-otf mix: relays whose game is the cost,
// a determinized spec, early mismatches, the protocol gallery, the starved
// quorum swarm, and two trace queries the game does not cover, which take
// the documented fallback. Weights keep the mean near 2 ms, so a run holds
// thousands of samples.
func otfCatalogue(rng *rand.Rand) []netEntry {
	marked, _ := mark(rng, gen.CounterSpec(6))
	return withProtocols([]netEntry{
		relay(10, 2),
		relay(11, 1),
		weak("relay-11-nondet-spec", gen.RelayNetwork(11, 2), gen.NondetCounterSpec(11), true, 1),
		weak("lossy-relay-11", gen.LossyRelayNetwork(11, 2), gen.CounterSpec(11), false, 2),
		weak("token-ring-8", gen.TokenRing(8), gen.TokenRingSpec(), true, 2),
		weak("buggy-token-ring-8", gen.BuggyTokenRing(8), gen.TokenRingSpec(), false, 2),
		weak("bq-swarm-12-4", gen.ByzantineQuorumSwarm(12, 4, 4, 6), gen.DecideSpec(), false, 1),
		{name: "relay-6-trace", net: gen.RelayNetwork(6, 2), spec: gen.CounterSpec(6),
			relation: "trace", want: true, weight: 1},
		{name: "relay-6-trace-marked", net: gen.RelayNetwork(6, 2), spec: marked,
			relation: "trace", want: false, weight: 1},
	})
}

// mtcCatalogue is the network-mtc-store mix. Lossy relays of 10 or more
// stages are left out: one cold derivation takes over a second.
func mtcCatalogue(rng *rand.Rand) []netEntry {
	marked, _ := mark(rng, gen.CounterSpec(8))
	return withProtocols([]netEntry{
		relay(8, 1), relay(9, 1), relay(10, 1), relay(11, 1),
		weak("relay-11-nondet-spec", gen.RelayNetwork(11, 2), gen.NondetCounterSpec(11), true, 1),
		weak("lossy-relay-8", gen.LossyRelayNetwork(8, 2), gen.CounterSpec(8), false, 1),
		weak("token-ring-8", gen.TokenRing(8), gen.TokenRingSpec(), true, 1),
		weak("buggy-token-ring-8", gen.BuggyTokenRing(8), gen.TokenRingSpec(), false, 1),
		weak("bq-swarm-12-4", gen.ByzantineQuorumSwarm(12, 4, 4, 6), gen.DecideSpec(), false, 1),
		weak("relay-8-marked", gen.RelayNetwork(8, 2), marked, false, 1),
	})
}

// networkPool expands a catalogue into its weighted requests.
func networkPool(rng *rand.Rand, cat []netEntry, route string) []item {
	var out []item
	for _, e := range cat {
		for w := 0; w < e.weight; w++ {
			out = append(out, item{req: networkRequest(rng, e, route), want: e.want})
		}
	}
	return out
}

// shuffled returns the pool in a seeded order; the stream cycles through it.
func shuffled(rng *rand.Rand, pool []item) []item {
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for i := range pool {
		pool[i].req.Label = fmt.Sprintf("r%d", i)
	}
	return pool
}
