package fsp

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// FuzzParseProcess: ParseString and ParseAUTString agree with the
// bufio.Scanner parsers they replaced (refParse, refParseAUT) on every
// input: the same accept/reject decision, the same error text, and
// identical FSPs.
func FuzzParseProcess(f *testing.F) {
	for _, seed := range []string{
		sampleText,
		"fsp crlf\r\nstates 2\r\narc 0 a 1\r\narc 1 tau 0\r\n",
		"# only comments here\nstates 1 # trailing comment\n#\n",
		"states\v2\narc\f0 a 1\nstart\t1\r",
		"states 2\narc 0\u00a0a 1\n",          // NBSP separates fields
		"states 2\narc 0 a\u00851\next 1 x\n", // so does U+0085
		"states 2\narc 0 \xff 1\n",            // invalid UTF-8 is a name byte
		"states 3\narc 2 b 0\narc 0 b 1\narc 0 a 2\narc 0 b 1\narc 2 b 0\n",
		"fsp p\nvars y x\nalphabet b a\nstates 2\next 1 x y\next 0 y\nstart 1\narc 1 a 0\n",
		"alphabet a\nalphabet b\nstates 1\n",
		"alphabet\nvars\nstates 1\nalphabet\n",
		"states 1\nstates 1\n",
		"states 2\nstart 2\n",
		"states 2\narc 0 a\n",
		"states 1\next 0 " + strings.Join(varNames(65), " ") + "\n",
		"states 2\nstates two\n",
		"fsp a b\nstates -1\n",
		"states 1\nfsp late\n",
		"des (0, 3, 2)\n(0, \"a,b\", 1)\n(1, \"i\", 0)\n(1, \"x, y\", 1)\n",
		"des (1, 2, 2)\r\n(0, tau, 1)\r\n(1, \"c\", 0)",
		"  des (0,0,1)  \n\n( 0 , \"a\" , 0 )\n",
		"des (0, 1, 2)\n(0, \"a\", 9)\n",
		"des (0, 1, 2)\n(4294967296, \"a\", 1)\n",
		"des (0, 1, 2)\n(0, , 1)\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if declaresManyStates(src) {
			t.Skip("declares more than 1<<16 states")
		}
		checkSameParse(t, "ParseString", src, ParseString,
			func(s string) (*FSP, error) { return refParse(strings.NewReader(s)) })
		checkSameParse(t, "ParseAUTString", src, ParseAUTString,
			func(s string) (*FSP, error) { return refParseAUT(strings.NewReader(s)) })
	})
}

func varNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "v" + strconv.Itoa(i)
	}
	return out
}

// declaresManyStates reports whether a "states" line or a "des" header of
// src holds a number above 1<<16: the references allocate every declared
// state one append at a time, which stalls a fuzzing run.
func declaresManyStates(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || (fields[0] != "states" && !strings.HasPrefix(fields[0], "des")) {
			continue
		}
		notDigit := func(r rune) bool { return r < '0' || r > '9' }
		for _, num := range strings.FieldsFunc(line, notDigit) {
			if n, err := strconv.Atoi(num); err != nil || n > 1<<16 {
				return true
			}
		}
	}
	return false
}

func checkSameParse(t *testing.T, name, src string, parse, ref func(string) (*FSP, error)) {
	t.Helper()
	got, err := parse(src)
	want, refErr := ref(src)
	switch {
	case (err == nil) != (refErr == nil):
		t.Fatalf("%s(%q): error %v, reference error %v", name, src, err, refErr)
	case err != nil:
		if err.Error() != refErr.Error() {
			t.Fatalf("%s(%q): error %q, reference error %q", name, src, err, refErr)
		}
	default:
		if d := diffFSP(got, want); d != "" {
			t.Fatalf("%s(%q): %s", name, src, d)
		}
	}
}

// diffFSP describes the first way got and want differ as stored, or
// returns "" when they are identical.
func diffFSP(got, want *FSP) string {
	switch {
	case got.name != want.name:
		return fmt.Sprintf("name %q, want %q", got.name, want.name)
	case got.start != want.start:
		return fmt.Sprintf("start %d, want %d", got.start, want.start)
	case !slices.Equal(got.alphabet.names, want.alphabet.names):
		return fmt.Sprintf("alphabet %q, want %q", got.alphabet.names, want.alphabet.names)
	case !slices.Equal(got.vars.names, want.vars.names):
		return fmt.Sprintf("vars %q, want %q", got.vars.names, want.vars.names)
	case !slices.Equal(got.ext, want.ext):
		return fmt.Sprintf("extensions %v, want %v", got.ext, want.ext)
	case got.numTrans != want.numTrans:
		return fmt.Sprintf("%d transitions, want %d", got.numTrans, want.numTrans)
	case len(got.adj) != len(want.adj):
		return fmt.Sprintf("%d states, want %d", len(got.adj), len(want.adj))
	}
	for s := range got.adj {
		if !slices.Equal(got.adj[s], want.adj[s]) {
			return fmt.Sprintf("state %d arcs %v, want %v", s, got.adj[s], want.adj[s])
		}
	}
	return ""
}

// TestParsedNamesDoNotAliasSource: every name a parsed FSP keeps is a
// copy, so a cached process never keeps its source text alive.
func TestParsedNamesDoNotAliasSource(t *testing.T) {
	for _, tc := range []struct {
		src   string
		parse func(string) (*FSP, error)
	}{
		{"fsp demo\nalphabet a b\nvars x y\nstates 3\next 1 x z\narc 0 a 1\narc 1 c 2\narc 2 tau 0\narc 0 a 2\n", ParseString},
		{"states 2\narc 0 a 1\next 1 y x\n", ParseString},
		{"des (0, 3, 2)\n(0, \"send\", 1)\n(1, recv, 0)\n(1, \"i\", 1)\n", ParseAUTString},
	} {
		src := strings.Clone(tc.src)
		f, err := tc.parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		inSrc := func(s string) bool {
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			return len(s) > 0 && p >= lo && p < lo+uintptr(len(src))
		}
		names := append([]string{f.name}, f.alphabet.names...)
		names = append(names, f.vars.names...)
		for k := range f.alphabet.index {
			names = append(names, k)
		}
		for k := range f.vars.index {
			names = append(names, k)
		}
		for _, nm := range names {
			if inSrc(nm) {
				t.Errorf("parse %q: name %q points into the source text", src, nm)
			}
		}
	}
}

// TestParseRejectsStateCountAboveMax: a declared state count above
// MaxStates is a line-numbered input error in both formats, raised before
// any state is allocated.
func TestParseRejectsStateCountAboveMax(t *testing.T) {
	for _, tc := range []struct {
		src   string
		parse func(string) (*FSP, error)
		want  string
	}{
		{fmt.Sprintf("fsp big\nstates %d\n", MaxStates+1), ParseString,
			fmt.Sprintf("line 2: state count %d exceeds MaxStates (%d)", MaxStates+1, MaxStates)},
		{"states 2000000000\narc 0 a 1\n", ParseString,
			fmt.Sprintf("line 1: state count 2000000000 exceeds MaxStates (%d)", MaxStates)},
		{fmt.Sprintf("\ndes (0, 0, %d)\n", MaxStates+1), ParseAUTString,
			fmt.Sprintf("aut line 2: state count %d exceeds MaxStates (%d)", MaxStates+1, MaxStates)},
	} {
		if _, err := tc.parse(tc.src); err == nil || err.Error() != tc.want {
			t.Errorf("parse %q: error %v, want %q", tc.src, err, tc.want)
		}
	}
}

// TestParseLongLine: lines have no length limit (the bufio.Scanner the
// parsers once used stopped at 16 MiB).
func TestParseLongLine(t *testing.T) {
	long := strings.Repeat("#", 16<<20+1)
	f, err := ParseString(long + "\nstates 2\narc 0 a 1\n")
	if err != nil || f.NumTransitions() != 1 {
		t.Fatalf("parse with a long comment line: %v", err)
	}
	if _, err := ParseAUTString("des (0, 1, 2)\n(0, \"" + long + "\", 1)\n"); err != nil {
		t.Fatalf("parse .aut with a long label: %v", err)
	}
}

// TestParseMemoryBoundedBySize: arc storage is reserved by the bytes left
// to read, not by the lines, so padding a text with blank lines does not
// make parsing it cost more than the text's size.
func TestParseMemoryBoundedBySize(t *testing.T) {
	src := "states 1\narc 0 a 0\n" + strings.Repeat("\n", 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ParseString(src); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(src)) {
		t.Errorf("parsing %d bytes allocated %d bytes", len(src), got)
	}
}

// TestStructuralEqualBranches: StructuralEqual decides as the canonical
// walk does on both of its branches — processes interning the same names
// in the same order (a reparse of one text), compared as stored, and
// processes interning them in another order (the alphabet and variables
// declared in reverse), compared by the walk. Half the variants gain an
// arc, half an extension variable.
func TestStructuralEqualBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	acts := []string{"a", "b", "tau", "zz", "m", "ab"}
	vars := []string{"x", "y", "acc"}
	var hits [2][2]int // [stored branch][equal]
	for i := 0; i < 300; i++ {
		f := randomInterned(rng, rng.Int63(), false)
		text, reordered := FormatString(f), reverseDecls(FormatString(f))
		extra := fmt.Sprintf("arc %d %s %d\n", rng.Intn(f.NumStates()), acts[rng.Intn(len(acts))], rng.Intn(f.NumStates()))
		if i%2 == 1 {
			extra = fmt.Sprintf("ext %d %s\n", rng.Intn(f.NumStates()), vars[rng.Intn(len(vars))])
		}
		for _, v := range []struct {
			text   string
			stored bool
		}{{text, true}, {text + extra, true}, {reordered, false}, {reordered + extra, false}} {
			g, err := ParseString(v.text)
			if err != nil {
				t.Fatalf("reparse: %v\n%s", err, v.text)
			}
			if stored := f.alphabet.Equal(g.alphabet) && f.vars.Equal(g.vars); stored != v.stored {
				t.Fatalf("case %d: stored branch %v, want %v for\n%s", i, stored, v.stored, v.text)
			}
			got, want := StructuralEqual(f, g), canonEqual(f, g)
			if got != want {
				t.Fatalf("case %d: StructuralEqual %v, canonical walk %v\n%s", i, got, want, v.text)
			}
			hits[b2i(v.stored)][b2i(got)]++
		}
	}
	for stored := range hits {
		for equal := range hits[stored] {
			if hits[stored][equal] == 0 {
				t.Errorf("no case with stored branch %v and equal %v", stored == 1, equal == 1)
			}
		}
	}
}

// reverseDecls reverses the names of the alphabet and vars lines of text.
func reverseDecls(text string) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		fields := strings.Fields(line)
		if len(fields) > 0 && (fields[0] == "alphabet" || fields[0] == "vars") {
			slices.Reverse(fields[1:])
			lines[i] = strings.Join(fields, " ")
		}
	}
	return strings.Join(lines, "\n")
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
