package fsp

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

const fpFixture = `fsp p
states 3
start 0
ext 0 x
ext 2 x
arc 0 a 1
arc 0 tau 2
arc 1 b 2
`

// TestFingerprintParseTwice: the same text parsed twice yields distinct
// pointers but one structure — the engine-cache dedup contract.
func TestFingerprintParseTwice(t *testing.T) {
	p1, err := ParseString(fpFixture)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParseString(fpFixture)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("premise: expected distinct pointers")
	}
	if !StructuralEqual(p1, p2) {
		t.Error("two parses of one text are not structurally equal")
	}
	if Fingerprint(p1) != Fingerprint(p2) {
		t.Error("two parses of one text have different fingerprints")
	}
}

// TestFingerprintInterningOrder: the same process built with a different
// alphabet interning order must compare and hash equal.
func TestFingerprintInterningOrder(t *testing.T) {
	b1 := NewBuilder("p")
	b1.AddStates(2)
	b1.ArcName(0, "a", 1)
	b1.ArcName(0, "b", 1)
	p1 := b1.MustBuild()

	b2 := NewBuilder("q") // name differs too: names are not structure
	b2.Action("b")        // intern in the opposite order
	b2.Action("a")
	b2.AddStates(2)
	b2.ArcName(0, "a", 1)
	b2.ArcName(0, "b", 1)
	p2 := b2.MustBuild()

	if !StructuralEqual(p1, p2) {
		t.Error("interning order changed structural equality")
	}
	if Fingerprint(p1) != Fingerprint(p2) {
		t.Error("interning order changed the fingerprint")
	}
}

// TestStructuralEqualDistinguishes: start state, arcs, labels, targets and
// extensions must all matter.
func TestStructuralEqualDistinguishes(t *testing.T) {
	base := func() *Builder {
		b := NewBuilder("p")
		b.AddStates(3)
		b.ArcName(0, "a", 1)
		b.Accept(2)
		return b
	}
	p := base().MustBuild()

	variants := map[string]*FSP{}
	{
		b := base()
		b.SetStart(1)
		variants["start"] = b.MustBuild()
	}
	{
		b := base()
		b.ArcName(1, "a", 2)
		variants["extra arc"] = b.MustBuild()
	}
	{
		b := NewBuilder("p")
		b.AddStates(3)
		b.ArcName(0, "b", 1)
		b.Accept(2)
		variants["label"] = b.MustBuild()
	}
	{
		b := NewBuilder("p")
		b.AddStates(3)
		b.ArcName(0, "a", 2)
		b.Accept(2)
		variants["target"] = b.MustBuild()
	}
	{
		b := base()
		b.Accept(0)
		variants["extension"] = b.MustBuild()
	}
	for name, v := range variants {
		if StructuralEqual(p, v) {
			t.Errorf("%s: variant compares structurally equal", name)
		}
	}
}

// TestFingerprintRandomStability: fingerprints are deterministic and
// random unequal processes essentially never collide (smoke, not proof).
func TestFingerprintRandomStability(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seen := map[uint64]*FSP{}
	for i := 0; i < 200; i++ {
		b := NewBuilder("r")
		n := 2 + rng.Intn(6)
		b.AddStates(n)
		for j := 0; j < 1+rng.Intn(8); j++ {
			b.ArcName(State(rng.Intn(n)), string(rune('a'+rng.Intn(3))), State(rng.Intn(n)))
		}
		f := b.MustBuild()
		if Fingerprint(f) != Fingerprint(f) {
			t.Fatal("fingerprint not deterministic")
		}
		if prev, ok := seen[Fingerprint(f)]; ok && !StructuralEqual(prev, f) {
			// A collision between structurally different processes is
			// possible in principle; the cache handles it via
			// StructuralEqual. Just make sure the pair really differs.
			t.Logf("hash collision between distinct processes (handled by equality check)")
		}
		seen[Fingerprint(f)] = f
	}
}

// goldenFixtures are processes whose fingerprints are pinned: the store
// keys entries by them, so the values must never change. "interning"
// interns its actions out of name order (zeta, b, alpha), "vars" its
// variables (y, x, acc); each is also pinned saturated, which adds the
// epsilon action.
var goldenFixtures = []struct {
	name string
	text string
	fp   [4]uint64 // Fingerprint, Fingerprint2, then both of the saturation
}{
	{"interning", `fsp interleaved
states 4
start 1
arc 0 zeta 1
arc 0 b 2
arc 0 b 3
arc 1 alpha 0
arc 1 tau 3
arc 2 b 0
arc 2 zeta 0
arc 2 alpha 3
arc 3 tau 1
ext 3 x
`, [4]uint64{0x8084eec39d6840ad, 0xed4ab9bfb286f1dc, 0x21d828fdf6a0306c, 0xc0a260163fb68157}},
	{"vars", `fsp vars
states 3
ext 0 y x
ext 1 acc
ext 2 x acc y
arc 0 a 1
arc 1 a 2
arc 2 tau 0
arc 2 a 0
`, [4]uint64{0xc79d591fe9f7ffc, 0x614778d374d7ab31, 0x51e2458f9707b3a7, 0xe22629245508f00a}},
	{"tau", `fsp taus
states 5
ext 4 x
arc 0 tau 1
arc 1 tau 2
arc 2 b 3
arc 1 a 4
arc 3 tau 0
arc 4 tau 4
arc 0 c 2
`, [4]uint64{0xfe372c6c3467447a, 0x56245964098c36cb, 0xe7ad0a1eb49db8df, 0xf9fd2ce3d4f8f928}},
}

// TestFingerprintGolden pins the fingerprint values: a change to the
// canonical walk or the hash would orphan every persisted store entry.
func TestFingerprintGolden(t *testing.T) {
	for _, fx := range goldenFixtures {
		f, err := ParseString(fx.text)
		if err != nil {
			t.Fatal(err)
		}
		sat, _, err := Saturate(f)
		if err != nil {
			t.Fatal(err)
		}
		got := [4]uint64{Fingerprint(f), Fingerprint2(f), Fingerprint(sat), Fingerprint2(sat)}
		if got != fx.fp {
			t.Errorf("%s: fingerprints %#x, want %#x", fx.name, got, fx.fp)
		}
	}
}

// namedArc, namedArcs, sortedExtNames and the two oracle functions below
// canonicalize by sorting each state's (action name, target) pairs and
// variable names: the differential oracle for the run-reordering walk of
// Fingerprint and StructuralEqual.
type namedArc struct {
	name string
	to   State
}

func namedArcs(f *FSP, s State) []namedArc {
	var out []namedArc
	for _, a := range f.adj[s] {
		out = append(out, namedArc{name: f.alphabet.Name(a.Act), to: a.To})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].to < out[j].to
	})
	return out
}

func sortedExtNames(f *FSP, s State) []string {
	var out []string
	for _, id := range f.ext[s].IDs() {
		out = append(out, f.vars.Name(id))
	}
	sort.Strings(out)
	return out
}

func oracleFingerprint(f *FSP, seed uint64) uint64 {
	h := fnv.New64a()
	var word [8]byte
	writeInt := func(v uint64) {
		for i := range word {
			word[i] = byte(v >> (8 * i))
		}
		h.Write(word[:])
	}
	if seed != 0 {
		writeInt(seed)
	}
	writeInt(uint64(f.NumStates()))
	writeInt(uint64(f.start))
	for s := 0; s < f.NumStates(); s++ {
		arcs := namedArcs(f, State(s))
		writeInt(uint64(len(arcs)))
		for _, a := range arcs {
			h.Write(append([]byte(a.name), 0))
			writeInt(uint64(a.to))
		}
		exts := sortedExtNames(f, State(s))
		writeInt(uint64(len(exts)))
		for _, nm := range exts {
			h.Write(append([]byte(nm), 0))
		}
	}
	return h.Sum64()
}

func oracleStructuralEqual(f, g *FSP) bool {
	if f.NumStates() != g.NumStates() || f.start != g.start {
		return false
	}
	for s := 0; s < f.NumStates(); s++ {
		if !reflect.DeepEqual(namedArcs(f, State(s)), namedArcs(g, State(s))) ||
			!reflect.DeepEqual(sortedExtNames(f, State(s)), sortedExtNames(g, State(s))) {
			return false
		}
	}
	return true
}

// randomInterned builds the random process drawn from seed over actions
// and variables interned in an order drawn from rng, so that id order and
// name order disagree in most draws and two calls with one seed build
// reinterned twins. mutate adds one more arc or extension variable.
func randomInterned(rng *rand.Rand, seed int64, mutate bool) *FSP {
	shape := rand.New(rand.NewSource(seed))
	acts := []string{"a", "b", "tau", "zz", "m", "ab"}
	vars := []string{"x", "y", "acc"}
	b := NewBuilder("r")
	for _, i := range rng.Perm(len(acts)) {
		b.Action(acts[i])
	}
	for _, i := range rng.Perm(len(vars)) {
		if _, err := b.vars.Intern(vars[i]); err != nil {
			panic(err)
		}
	}
	n := 1 + shape.Intn(7)
	b.AddStates(n)
	b.SetStart(State(shape.Intn(n)))
	for j := shape.Intn(4 * n); j > 0; j-- {
		b.ArcName(State(shape.Intn(n)), acts[shape.Intn(len(acts))], State(shape.Intn(n)))
	}
	for s := 0; s < n; s++ {
		for _, v := range vars {
			if shape.Intn(3) == 0 {
				b.Extend(State(s), v)
			}
		}
	}
	if mutate {
		if rng.Intn(2) == 0 {
			b.ArcName(State(rng.Intn(n)), acts[rng.Intn(len(acts))], State(rng.Intn(n)))
		} else {
			b.Extend(State(rng.Intn(n)), vars[rng.Intn(len(vars))])
		}
	}
	return b.MustBuild()
}

// TestFingerprintMatchesNamedArcsOracle: the run-reordering walk hashes
// the same bytes and decides the same equality as the sort-based walk.
func TestFingerprintMatchesNamedArcsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		seed := rng.Int63()
		f := randomInterned(rng, seed, false)
		if got, want := Fingerprint(f), oracleFingerprint(f, 0); got != want {
			t.Fatalf("case %d: Fingerprint %#x, oracle %#x", i, got, want)
		}
		if got, want := Fingerprint2(f), oracleFingerprint(f, 0x9e3779b97f4a7c15); got != want {
			t.Fatalf("case %d: Fingerprint2 %#x, oracle %#x", i, got, want)
		}
		// A reinterned twin is structurally equal; a mutated one mostly
		// is not (a mutation can duplicate an existing arc or variable).
		for _, g := range []*FSP{randomInterned(rng, seed, false), randomInterned(rng, seed, true)} {
			if got, want := StructuralEqual(f, g), oracleStructuralEqual(f, g); got != want {
				t.Fatalf("case %d: StructuralEqual %v, oracle %v", i, got, want)
			}
			if StructuralEqual(f, g) && Fingerprint(f) != Fingerprint(g) {
				t.Fatalf("case %d: structurally equal processes hash apart", i)
			}
		}
	}
}

// TestFingerprintAllocsFlat: the walk allocates per call, not per state or
// per arc — a process with a hundred times the arcs over the same alphabet
// costs the same allocations.
func TestFingerprintAllocsFlat(t *testing.T) {
	build := func(n int) *FSP {
		rng := rand.New(rand.NewSource(5))
		b := NewBuilder("p")
		for _, a := range []string{"z", "tau", "b", "a"} {
			b.Action(a)
		}
		b.AddStates(n)
		for j := 0; j < 8*n; j++ {
			b.ArcName(State(rng.Intn(n)), []string{"a", "b", "z", "tau"}[rng.Intn(4)], State(rng.Intn(n)))
		}
		b.Accept(0)
		return b.MustBuild()
	}
	small, large := build(10), build(1000)
	allocs := func(f *FSP) float64 {
		return testing.AllocsPerRun(20, func() { Fingerprint(f) })
	}
	a1, a2 := allocs(small), allocs(large)
	const bound = 12
	if a1 > bound || a2 > bound || a2 > a1 {
		t.Errorf("Fingerprint allocations: %v at %d arcs, %v at %d arcs; want <= %d and flat",
			a1, small.NumTransitions(), a2, large.NumTransitions(), bound)
	}
	twin := build(1000)
	if eq := testing.AllocsPerRun(20, func() { StructuralEqual(large, twin) }); eq > 2*bound {
		t.Errorf("StructuralEqual allocations: %v at %d arcs; want <= %d", eq, large.NumTransitions(), 2*bound)
	}
}
