package compose_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ccs/internal/compose"
	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/lts"
	"ccs/internal/partition"
)

// sender is a · b' · (repeat); receiver is a' · c · (repeat). Composed they
// can handshake on a.
func sender() *fsp.FSP {
	b := fsp.NewBuilder("S")
	b.AddStates(2)
	b.ArcName(0, "a", 1)
	b.ArcName(1, "b'", 0)
	b.Accept(0).Accept(1)
	return b.MustBuild()
}

func receiver() *fsp.FSP {
	b := fsp.NewBuilder("R")
	b.AddStates(2)
	b.ArcName(0, "a'", 1)
	b.ArcName(1, "c", 0)
	b.Accept(0).Accept(1)
	return b.MustBuild()
}

// refCompose is the binary CCS product f | g, built over the public fsp
// API as a reference for the network explorer (it was fsp.Compose): each
// side interleaves on its own arcs, complementary actions — "a" in one,
// "a'" in the other — synchronize into one tau, and a product state's
// extension is the union of its components'. Only reachable pairs are
// built.
func refCompose(f, g *fsp.FSP) (*fsp.FSP, error) {
	b := fsp.NewBuilder("(" + f.Name() + "|" + g.Name() + ")")
	ids := map[[2]fsp.State]fsp.State{}
	var order [][2]fsp.State
	intern := func(p, q fsp.State) fsp.State {
		id, ok := ids[[2]fsp.State{p, q}]
		if !ok {
			id = b.AddState()
			ids[[2]fsp.State{p, q}] = id
			order = append(order, [2]fsp.State{p, q})
		}
		return id
	}
	b.SetStart(intern(f.Start(), g.Start()))
	for cur := 0; cur < len(order); cur++ {
		p, q := order[cur][0], order[cur][1]
		from := fsp.State(cur)
		for _, a := range f.Arcs(p) {
			b.ArcName(from, f.Alphabet().Name(a.Act), intern(a.To, q))
		}
		for _, a := range g.Arcs(q) {
			b.ArcName(from, g.Alphabet().Name(a.Act), intern(p, a.To))
		}
		for _, a := range f.Arcs(p) {
			co, ok := g.Alphabet().Lookup(fsp.CoName(f.Alphabet().Name(a.Act)))
			if a.Act == fsp.Tau || !ok {
				continue
			}
			for _, to := range g.Dest(q, co) {
				b.Arc(from, fsp.Tau, intern(a.To, to))
			}
		}
		for _, id := range f.Ext(p).IDs() {
			b.Extend(from, f.Vars().Name(id))
		}
		for _, id := range g.Ext(q).IDs() {
			b.Extend(from, g.Vars().Name(id))
		}
	}
	return b.Build()
}

// refRestrict is Milner's P\L over the public fsp API, the reference for
// hiding (it was fsp.Restrict): f's reachable part without the arcs on
// the given names or their co-names.
func refRestrict(f *fsp.FSP, names ...string) (*fsp.FSP, error) {
	banned := map[string]bool{}
	for _, n := range names {
		banned[n], banned[fsp.CoName(n)] = true, true
	}
	b := fsp.NewBuilder(f.Name())
	ids := map[fsp.State]fsp.State{}
	var order []fsp.State
	intern := func(s fsp.State) fsp.State {
		id, ok := ids[s]
		if !ok {
			id = b.AddState()
			ids[s] = id
			order = append(order, s)
		}
		return id
	}
	b.SetStart(intern(f.Start()))
	for cur := 0; cur < len(order); cur++ {
		from := fsp.State(cur)
		for _, a := range f.Arcs(order[cur]) {
			if name := f.Alphabet().Name(a.Act); !banned[name] {
				b.ArcName(from, name, intern(a.To))
			}
		}
		for _, id := range f.Ext(order[cur]).IDs() {
			b.Extend(from, f.Vars().Name(id))
		}
	}
	return b.Build()
}

// TestBinaryMatchesFspCompose checks the n-ary explorer against
// refCompose on handshake-capable pairs: the two product constructions
// must be strongly equivalent.
func TestBinaryMatchesFspCompose(t *testing.T) {
	pairs := [][2]*fsp.FSP{
		{sender(), receiver()},
		{receiver(), sender()},
		{sender(), sender()},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		pairs = append(pairs, [2]*fsp.FSP{
			gen.Random(rng, 3+rng.Intn(4), 6, 3, 0.2),
			gen.Random(rng, 3+rng.Intn(4), 6, 3, 0.2),
		})
	}
	for i, pair := range pairs {
		want, err := refCompose(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := compose.New("net", pair[0], pair[1]).FSP()
		if err != nil {
			t.Fatal(err)
		}
		eq, err := core.StrongEquivalent(want, got)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("pair %d: network product not strongly equivalent to refCompose", i)
		}
	}
}

// TestHideKeepsHandshake: hiding the handshake channel removes the
// unsynchronized interleavings but keeps the synchronized tau, so the
// restricted product of sender|receiver is forced through the handshake.
func TestHideKeepsHandshake(t *testing.T) {
	net := compose.New("sr", sender(), receiver()).Hide("a")
	f, err := net.FSP()
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < f.NumStates(); s++ {
		for _, a := range f.Arcs(fsp.State(s)) {
			name := f.Alphabet().Name(a.Act)
			if name == "a" || name == "a'" {
				t.Fatalf("hidden action %q survives in the product", name)
			}
		}
	}
	// The handshake must still be possible: spec is tau then the two
	// visible actions interleaving back to start. Weak-equivalently, b'
	// must be reachable (sender only advances via the handshake).
	found := false
	for s := 0; s < f.NumStates() && !found; s++ {
		for _, a := range f.Arcs(fsp.State(s)) {
			if f.Alphabet().Name(a.Act) == "b'" {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("handshake tau was restricted away: b' unreachable")
	}
	// And the inline restriction must agree with compose-then-restrict.
	flat, err := refCompose(sender(), receiver())
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := refRestrict(flat, "a")
	if err != nil {
		t.Fatal(err)
	}
	eq, err := core.StrongEquivalent(f, restricted)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("inline restriction disagrees with refRestrict(refCompose(...))")
	}
}

// TestComposeHandshake: a sender emitting on "mid'" and a receiver
// listening on "mid" offer one tau handshake from the joint start, and
// hiding mid leaves only that handshake.
func TestComposeHandshake(t *testing.T) {
	b1 := fsp.NewBuilder("sender")
	b1.AddStates(2)
	b1.ArcName(0, "mid'", 1)
	f := b1.MustBuild()

	b2 := fsp.NewBuilder("receiver")
	b2.AddStates(2)
	b2.ArcName(0, "mid", 1)
	g := b2.MustBuild()

	comp, err := compose.New("", f, g).FSP()
	if err != nil {
		t.Fatal(err)
	}
	// The composed process has: interleaved mid' and mid moves, and a tau
	// handshake from the joint start.
	if got := comp.Dest(comp.Start(), fsp.Tau); len(got) != 1 {
		t.Fatalf("expected one tau handshake, got %v", got)
	}
	// After restriction on mid, ONLY the handshake remains.
	restricted, err := compose.New("", f, g).Hide("mid").FSP()
	if err != nil {
		t.Fatal(err)
	}
	if restricted.NumTransitions() != 1 {
		t.Fatalf("restricted composition has %d transitions, want 1 (the tau)", restricted.NumTransitions())
	}
	if got := restricted.Dest(restricted.Start(), fsp.Tau); len(got) != 1 {
		t.Errorf("restriction lost the handshake")
	}
}

// TestComposeInterleaving: a | b with no co-names is pure interleaving,
// 4 product states and 4 transitions.
func TestComposeInterleaving(t *testing.T) {
	b1 := fsp.NewBuilder("")
	b1.AddStates(2)
	b1.ArcName(0, "a", 1)
	f := b1.MustBuild()
	b2 := fsp.NewBuilder("")
	b2.AddStates(2)
	b2.ArcName(0, "b", 1)
	g := b2.MustBuild()

	comp, err := compose.New("", f, g).FSP()
	if err != nil {
		t.Fatal(err)
	}
	if comp.NumStates() != 4 {
		t.Errorf("interleaving product has %d states, want 4", comp.NumStates())
	}
	if comp.NumTransitions() != 4 {
		t.Errorf("interleaving product has %d transitions, want 4", comp.NumTransitions())
	}
}

// TestComposeExtensionsUnion: a product state's extension is the union of
// its components' extensions.
func TestComposeExtensionsUnion(t *testing.T) {
	b1 := fsp.NewBuilder("")
	b1.AddStates(1)
	b1.Extend(0, "x")
	f := b1.MustBuild()
	b2 := fsp.NewBuilder("")
	b2.AddStates(1)
	b2.Extend(0, "y")
	g := b2.MustBuild()
	comp, err := compose.New("", f, g).FSP()
	if err != nil {
		t.Fatal(err)
	}
	e := comp.Ext(comp.Start())
	x, okX := comp.Vars().Lookup("x")
	y, okY := comp.Vars().Lookup("y")
	if !okX || !okY || !e.Has(x) || !e.Has(y) {
		t.Errorf("composition extension union wrong: %v", e.Format(comp.Vars()))
	}
}

// TestRestrictRemovesCoNames: hiding a name in a one-component network
// removes its arcs and its co-name's, prunes what becomes unreachable, and
// tau cannot be hidden.
func TestRestrictRemovesCoNames(t *testing.T) {
	b := fsp.NewBuilder("")
	b.AddStates(3)
	b.ArcName(0, "a", 1)
	b.ArcName(0, "a'", 2)
	b.ArcName(0, "b", 1)
	f := b.MustBuild()
	r, err := compose.New("", f).Hide("a").FSP()
	if err != nil {
		t.Fatal(err)
	}
	if r.NumTransitions() != 1 {
		t.Errorf("restriction kept %d transitions, want 1", r.NumTransitions())
	}
	if r.NumStates() != 2 {
		t.Errorf("unreachable states not pruned: %d states", r.NumStates())
	}
	if _, err := compose.New("", f).Hide(fsp.TauName).FSP(); err == nil {
		t.Error("restricting tau should fail")
	}
}

// TestRestrictEverything: hiding every action leaves the bare start state.
func TestRestrictEverything(t *testing.T) {
	b := fsp.NewBuilder("")
	b.AddStates(3)
	b.ArcName(0, "a", 1)
	b.ArcName(1, "b", 2)
	f := b.MustBuild()
	r, err := compose.New("", f).Hide("a", "b").FSP()
	if err != nil {
		t.Fatal(err)
	}
	if r.NumStates() != 1 || r.NumTransitions() != 0 {
		t.Errorf("full restriction should leave the bare start state: %d/%d",
			r.NumStates(), r.NumTransitions())
	}
}

// TestRelabelCarriesCoNames: a base-name relabeling applies to the co-name
// too, so a generic cell can be instantiated onto concrete channels.
func TestRelabelCarriesCoNames(t *testing.T) {
	cell := gen.BufferCell(1)
	net := (&compose.Network{Name: "one"}).Add(cell, map[string]string{"in": "left", "out": "right"})
	f, err := net.FSP()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for s := 0; s < f.NumStates(); s++ {
		for _, a := range f.Arcs(fsp.State(s)) {
			names[f.Alphabet().Name(a.Act)] = true
		}
	}
	for _, want := range []string{"left", "right'", "tau"} {
		if !names[want] {
			t.Errorf("product lacks relabeled action %q (have %v)", want, names)
		}
	}
	if names["in"] || names["out'"] {
		t.Errorf("unrelabeled action survives: %v", names)
	}
}

// TestRelabelToCoName: a relabeling may target a co-name ("b" -> "a'"),
// in which case the component's b' arcs must become a (CoName is
// involutive), so handshakes work and are symmetric in component order.
func TestRelabelToCoName(t *testing.T) {
	// P is b · b' · (repeat); relabeled {b: a'} it becomes a' · a.
	pb := fsp.NewBuilder("P")
	pb.AddStates(2)
	pb.ArcName(0, "b", 1)
	pb.ArcName(1, "b'", 0)
	pb.Accept(0).Accept(1)
	p := pb.MustBuild()
	// Q is a' · a.
	qb := fsp.NewBuilder("Q")
	qb.AddStates(2)
	qb.ArcName(0, "a'", 1)
	qb.ArcName(1, "a", 0)
	qb.Accept(0).Accept(1)
	q := qb.MustBuild()

	relabel := map[string]string{"b": "a'"}
	countTaus := func(f *fsp.FSP) int {
		n := 0
		for s := 0; s < f.NumStates(); s++ {
			for _, a := range f.Arcs(fsp.State(s)) {
				if a.Act == fsp.Tau {
					n++
				}
			}
		}
		return n
	}
	fwd, err := (&compose.Network{Name: "pq"}).Add(p, relabel).Add(q, nil).FSP()
	if err != nil {
		t.Fatal(err)
	}
	rev, err := (&compose.Network{Name: "qp"}).Add(q, nil).Add(p, relabel).FSP()
	if err != nil {
		t.Fatal(err)
	}
	if countTaus(fwd) == 0 || countTaus(rev) == 0 {
		t.Fatalf("relabeled co-name does not handshake: %d/%d taus", countTaus(fwd), countTaus(rev))
	}
	eq, err := core.StrongEquivalent(fwd, rev)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("handshakes depend on component order")
	}
	// And hiding the channel must remove the doubled-label interleavings
	// too: nothing named a/a' may survive.
	hidden, err := (&compose.Network{Name: "pqh"}).Add(p, relabel).Add(q, nil).Hide("a").FSP()
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < hidden.NumStates(); s++ {
		for _, a := range hidden.Arcs(fsp.State(s)) {
			if nm := hidden.Alphabet().Name(a.Act); nm == "a" || nm == "a'" || nm == "a''" {
				t.Fatalf("hidden channel survives as %q", nm)
			}
		}
	}
}

// TestIndexMatchesFSP is the differential for the two materializations:
// the direct-CSR index and FromFSP over the FSP product must describe the
// same LTS — same states and edges, identical extension pre-partition, and
// identical coarsest partitions.
func TestIndexMatchesFSP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nets := []*compose.Network{
		compose.New("sr", sender(), receiver()).Hide("a"),
		gen.RelayNetwork(3, 2),
		gen.LossyRelayNetwork(3, 1),
	}
	for i := 0; i < 20; i++ {
		nets = append(nets, gen.RandomNetwork(rng))
	}
	for i, net := range nets {
		idx, initial, err := net.Index()
		if err != nil {
			t.Fatal(err)
		}
		f, err := net.FSP()
		if err != nil {
			t.Fatal(err)
		}
		if idx.N() != f.NumStates() {
			t.Fatalf("net %d: index has %d states, FSP %d", i, idx.N(), f.NumStates())
		}
		if idx.NumEdges() != f.NumTransitions() {
			t.Fatalf("net %d: index has %d edges, FSP %d", i, idx.NumEdges(), f.NumTransitions())
		}
		wantInitial := core.ExtInitial(f)
		for s, blk := range wantInitial {
			if initial[s] != blk {
				t.Fatalf("net %d: initial partition differs at state %d", i, s)
			}
		}
		got := partition.PaigeTarjanIndex(idx, initial)
		want := partition.PaigeTarjanIndex(lts.FromFSP(f), wantInitial)
		if !got.Equal(want) {
			t.Fatalf("net %d: coarsest partitions differ: %d vs %d blocks", i, got.NumBlocks(), want.NumBlocks())
		}
	}
}

// minimizeThenCompose quotients every component by ≈ᶜ and composes the
// minima — the pipeline under test, spelled out at the core level.
func minimizeThenCompose(t *testing.T, net *compose.Network) *fsp.FSP {
	t.Helper()
	min := &compose.Network{Name: net.Name, Hidden: net.Hidden}
	for _, comp := range net.Components {
		q, _, err := core.QuotientCongruence(comp.P)
		if err != nil {
			t.Fatal(err)
		}
		min.Add(q, comp.Relabel)
	}
	f, err := min.FSP()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMinimizeThenComposeAgrees is the compositionality property at the
// heart of the pipeline: minimize-then-compose and compose-then-minimize
// agree up to ≈ and even ≈ᶜ, across the randomized network generator and
// the structured edge cases (tau-only component, deadlocked component,
// self-composition).
func TestMinimizeThenComposeAgrees(t *testing.T) {
	tauOnly := func() *fsp.FSP {
		b := fsp.NewBuilder("tauspin")
		b.AddStates(3)
		b.ArcName(0, fsp.TauName, 1)
		b.ArcName(1, fsp.TauName, 2)
		b.ArcName(2, fsp.TauName, 0)
		b.Accept(0).Accept(1).Accept(2)
		return b.MustBuild()
	}()
	deadlock := func() *fsp.FSP {
		b := fsp.NewBuilder("dead")
		b.AddStates(1)
		b.Accept(0)
		return b.MustBuild()
	}()
	cell := gen.BufferCell(2)

	nets := []*compose.Network{
		compose.New("tau-only", tauOnly, sender()),
		compose.New("deadlocked", deadlock, sender(), receiver()).Hide("a"),
		compose.New("self", cell, cell, cell), // self-composition, shared pointer
		gen.RelayNetwork(3, 2),
		gen.LossyRelayNetwork(3, 2),
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 25; i++ {
		nets = append(nets, gen.RandomNetwork(rng))
	}

	for i, net := range nets {
		flat, err := net.FSP()
		if err != nil {
			t.Fatal(err)
		}
		// No size assertion here: on already-minimal components the ≈ᶜ
		// root fix can make the minimized product slightly larger than the
		// flat one. The collapse on tau-rich workloads is asserted by the
		// relay-gallery tests (internal/gen) and measured by E17.
		mtc := minimizeThenCompose(t, net)
		weak, err := core.WeakEquivalent(flat, mtc)
		if err != nil {
			t.Fatal(err)
		}
		if !weak {
			t.Fatalf("net %d (%s): minimize-then-compose not ≈ flat product", i, net.Name)
		}
		cong, err := core.ObservationCongruent(flat, mtc)
		if err != nil {
			t.Fatal(err)
		}
		if !cong {
			t.Fatalf("net %d (%s): minimize-then-compose not ≈ᶜ flat product", i, net.Name)
		}
		// Verdicts against an independent spec must agree under both ≈
		// and ≈ᶜ (transitivity makes this redundant given the above, but
		// it is the user-visible contract, so assert it directly).
		spec := gen.Random(rng, 3, 5, 3, 0.3)
		for _, check := range []struct {
			name string
			fn   func(a, b *fsp.FSP) (bool, error)
		}{
			{"weak", func(a, b *fsp.FSP) (bool, error) { return core.WeakEquivalent(a, b) }},
			{"congruence", func(a, b *fsp.FSP) (bool, error) { return core.ObservationCongruent(a, b) }},
		} {
			vFlat, err := check.fn(flat, spec)
			if err != nil {
				t.Fatal(err)
			}
			vMTC, err := check.fn(mtc, spec)
			if err != nil {
				t.Fatal(err)
			}
			if vFlat != vMTC {
				t.Fatalf("net %d (%s): %s verdict differs: flat=%v mtc=%v",
					i, net.Name, check.name, vFlat, vMTC)
			}
		}
	}
}

// TestValidate exercises the description-level error paths.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		net  *compose.Network
	}{
		{"empty", &compose.Network{Name: "empty"}},
		{"nil component", (&compose.Network{}).Add(nil, nil)},
		{"relabel tau", (&compose.Network{}).Add(sender(), map[string]string{"tau": "a"})},
		{"relabel to tau", (&compose.Network{}).Add(sender(), map[string]string{"a": "tau"})},
		{"relabel epsilon", (&compose.Network{}).Add(sender(), map[string]string{"ε": "a"})},
		{"hide tau", compose.New("h", sender()).Hide("tau")},
	}
	for _, tc := range cases {
		if err := tc.net.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid network", tc.name)
		}
		if _, err := tc.net.FSP(); err == nil {
			t.Errorf("%s: FSP accepted an invalid network", tc.name)
		}
		if _, _, err := tc.net.Index(); err == nil {
			t.Errorf("%s: Index accepted an invalid network", tc.name)
		}
	}
}

// TestDeterministicOrder: the two materializations and repeated runs see
// the same discovery order, so state counts and fingerprint-style
// comparisons are stable.
func TestDeterministicOrder(t *testing.T) {
	net := gen.RelayNetwork(4, 2)
	a, err := net.FSP()
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.FSP()
	if err != nil {
		t.Fatal(err)
	}
	if !fsp.StructuralEqual(a, b) {
		t.Fatal("repeated composition is not deterministic")
	}
	if fsp.Fingerprint(a) != fsp.Fingerprint(b) {
		t.Fatal("fingerprints of identical compositions differ")
	}
}

func ExampleNetwork_String() {
	net := compose.New("", sender(), receiver()).Hide("a")
	fmt.Println(net.String())
	// Output: (S|R)\{a}
}

// TestAppendSuccMatchesSucc: the batched successor enumeration must agree
// with the streaming callback — same labels, same vectors, same
// deterministic order — on every reachable product state of the gallery
// and a handful of random networks.
func TestAppendSuccMatchesSucc(t *testing.T) {
	var nets []*compose.Network
	for _, entry := range gen.NetworkGallery() {
		nets = append(nets, entry.Net)
	}
	for _, entry := range gen.ProtocolGallery() {
		nets = append(nets, entry.Net) // sync-vector networks ride the same differential
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		nets = append(nets, gen.RandomNetwork(rng))
	}
	for _, net := range nets {
		e, err := net.Expand()
		if err != nil {
			t.Fatal(err)
		}
		k := e.K()
		type step struct {
			label int32
			vec   string
		}
		start := append([]int32(nil), e.Starts...)
		seen := map[string]bool{fmt.Sprint(start): true}
		queue := [][]int32{start}
		var b compose.SuccBatch
		scratch := make([]int32, k)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			var want []step
			e.Succ(cur, scratch, func(label int32, succ []int32) bool {
				want = append(want, step{label, fmt.Sprint(succ)})
				return true
			})
			b.Reset()
			e.AppendSucc(cur, &b)
			if b.Len() != len(want) {
				t.Fatalf("%s at %v: AppendSucc found %d successors, Succ %d", net, cur, b.Len(), len(want))
			}
			for j := 0; j < b.Len(); j++ {
				got := step{b.Labels[j], fmt.Sprint(b.Vec(j))}
				if got != want[j] {
					t.Fatalf("%s at %v, successor %d: AppendSucc %v, Succ %v", net, cur, j, got, want[j])
				}
				if !seen[got.vec] {
					seen[got.vec] = true
					queue = append(queue, append([]int32(nil), b.Vec(j)...))
				}
			}
		}
	}
}
