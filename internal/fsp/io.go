package fsp

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The textual interchange format is line-oriented:
//
//	fsp Name              # optional header with process name
//	alphabet a b c        # observable actions (tau is implicit)
//	vars x                # optional variable declarations
//	states 4              # number of states, named 0..n-1
//	start 0               # start state (defaults to 0)
//	ext 0 x               # extension of a state (any number of lines)
//	arc 0 a 1             # transition lines; action "tau" is the tau move
//
// Blank lines and '#' comments are ignored. Declarations may appear in any
// order except that "states" must precede "start", "ext" and "arc" lines.
// Lines end at '\n' with one trailing '\r' dropped, and may be any length.

// MaxStates bounds the state count a "states" line or an .aut header may
// declare. Both parsers allocate every declared state before they read an
// arc, so a count beyond this is a typo or an attack, not a process: a
// 16 MiB request body holds fewer arc lines than that.
const MaxStates = 1 << 22

// Parse reads an FSP in the textual interchange format: it reads r to the
// end and parses the text as ParseString does.
func Parse(r io.Reader) (*FSP, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(string(data))
}

// ParseString parses an FSP in the textual interchange format. It walks
// src once, in place, and lines may be any length. Fields are substrings
// of src, but every name the result keeps (the process name, actions and
// variables) is a copy, so a cached FSP never keeps the source text
// alive. A "states" line above MaxStates is an error.
func ParseString(src string) (*FSP, error) {
	var (
		b               *Builder
		name            string
		lines           = lineWalker{rest: src}
		fields          []string
		pendingAlphabet []string
		pendingVars     []string
		arcs            []arcFrom // in file order
		perState        []int32   // arcs per source state
	)
	fail := func(format string, args ...any) (*FSP, error) {
		return nil, fmt.Errorf("line %d: %s", lines.n, fmt.Sprintf(format, args...))
	}
	for line, ok := lines.next(); ok; line, ok = lines.next() {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields = appendFields(fields[:0], line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "fsp":
			if len(fields) > 1 {
				name = fields[1]
			}
		case "alphabet":
			if b != nil {
				return fail("alphabet must precede states")
			}
			// Stash in name of builder later; we need the builder to exist
			// first, so create it lazily via a pending alphabet.
			if pendingAlphabet != nil {
				return fail("duplicate alphabet declaration")
			}
			// fields is reused from line to line; keep a copy, non-nil
			// even when the declaration is empty.
			pendingAlphabet = append(make([]string, 0, len(fields)-1), fields[1:]...)
		case "vars":
			if b != nil {
				return fail("vars must precede states")
			}
			if pendingVars != nil {
				return fail("duplicate vars declaration")
			}
			pendingVars = append(make([]string, 0, len(fields)-1), fields[1:]...)
		case "states":
			if b != nil {
				return fail("duplicate states declaration")
			}
			if len(fields) != 2 {
				return fail("states wants one argument")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return fail("invalid state count %q", fields[1])
			}
			if n > MaxStates {
				return fail("state count %d exceeds MaxStates (%d)", n, MaxStates)
			}
			b = NewBuilder(strings.Clone(name))
			for _, a := range pendingAlphabet {
				if a == TauName {
					return fail("alphabet must not contain %q", TauName)
				}
				internAction(b.alphabet, a)
			}
			for _, v := range pendingVars {
				if _, err := internVar(b.vars, v); err != nil {
					return fail("%v", err)
				}
			}
			pendingAlphabet, pendingVars = nil, nil
			b.AddStates(n)
			perState = make([]int32, n)
		case "start":
			if b == nil {
				return fail("start before states")
			}
			s, err := parseState(fields, 1, b)
			if err != nil {
				return fail("%v", err)
			}
			b.SetStart(s)
		case "ext":
			if b == nil {
				return fail("ext before states")
			}
			s, err := parseState(fields, 1, b)
			if err != nil {
				return fail("%v", err)
			}
			for _, v := range fields[2:] {
				id, err := internVar(b.vars, v)
				if err != nil {
					return fail("%v", err)
				}
				b.ext[s] = b.ext[s].With(id)
			}
		case "arc":
			if b == nil {
				return fail("arc before states")
			}
			if len(fields) != 4 {
				return fail("arc wants: arc FROM ACTION TO")
			}
			from, err := parseState(fields, 1, b)
			if err != nil {
				return fail("%v", err)
			}
			to, err := parseState(fields, 3, b)
			if err != nil {
				return fail("%v", err)
			}
			if arcs == nil {
				// This arc, and the rest: an arc line takes at least the
				// 10 bytes of "arc 0 a 1\n".
				arcs = make([]arcFrom, 0, len(lines.rest)/10+2)
			}
			arcs = append(arcs, arcFrom{from, Arc{Act: internAction(b.alphabet, fields[2]), To: to}})
			perState[from]++
		default:
			return fail("unknown directive %q", fields[0])
		}
	}
	if b == nil {
		return nil, fmt.Errorf("no states declaration found")
	}
	fillRows(b.adj, perState, arcs)
	return b.Build()
}

func parseState(fields []string, idx int, b *Builder) (State, error) {
	if idx >= len(fields) {
		return 0, fmt.Errorf("missing state operand")
	}
	n, err := strconv.Atoi(fields[idx])
	if err != nil || n < 0 || n >= len(b.adj) {
		return 0, fmt.Errorf("invalid state %q", fields[idx])
	}
	return State(n), nil
}

// arcFrom is one parsed arc line: its source state and the arc.
type arcFrom struct {
	from State
	arc  Arc
}

// fillRows sets each state's row to its arcs in file order: a stable
// counting sort by source state into one backing array, so Build sorts
// exactly the rows whose lines were out of (Act, To) order. Each row's
// capacity is capped at its length, so an append to one row can never
// write into the next. States without arcs keep nil rows.
func fillRows(adj [][]Arc, perState []int32, arcs []arcFrom) {
	backing := make([]Arc, len(arcs))
	off := 0
	for s, n := range perState {
		if n > 0 {
			adj[s] = backing[off : off : off+int(n)]
			off += int(n)
		}
	}
	for _, a := range arcs {
		adj[a.from] = append(adj[a.from], a.arc)
	}
}

// lineWalker cuts a source string into lines in place, as bufio.ScanLines
// does: at each '\n', dropping one trailing '\r'. n is the 1-based
// number of the line returned last.
type lineWalker struct {
	rest string
	n    int
}

func (w *lineWalker) next() (string, bool) {
	if w.rest == "" {
		return "", false
	}
	line := w.rest
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line, w.rest = line[:i], line[i+1:]
	} else {
		w.rest = ""
	}
	w.n++
	return strings.TrimSuffix(line, "\r"), true
}

// asciiSpace marks the bytes strings.Fields splits ASCII text on.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends the fields of line to dst, split exactly as
// strings.Fields splits them. An ASCII line is split in place; a line
// holding any byte >= 0x80 is handed to strings.Fields, so Unicode
// spaces (NBSP, U+0085, ...) separate fields as they always have.
func appendFields(dst []string, line string) []string {
	n, start := len(dst), -1
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c >= utf8.RuneSelf:
			return append(dst[:n], strings.Fields(line)...)
		case asciiSpace[c]:
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// internAction interns an action name read from source text, copying the
// name only when it is new, so the alphabet never points into the source.
func internAction(a *Alphabet, name string) Action {
	if act, ok := a.index[name]; ok {
		return act
	}
	return a.Intern(strings.Clone(name))
}

// internVar is internAction for variable names.
func internVar(t *VarTable, name string) (VarID, error) {
	if id, ok := t.index[name]; ok {
		return id, nil
	}
	return t.Intern(strings.Clone(name))
}

// Format writes f in the textual interchange format. The output is
// canonical: parsing it yields an FSP equal to f up to alphabet ordering.
func Format(w io.Writer, f *FSP) error {
	bw := bufio.NewWriter(w)
	if f.name != "" {
		fmt.Fprintf(bw, "fsp %s\n", f.name)
	}
	if f.alphabet.NumObservable() > 0 {
		names := make([]string, 0, f.alphabet.NumObservable())
		for _, a := range f.alphabet.Observable() {
			names = append(names, f.alphabet.Name(a))
		}
		fmt.Fprintf(bw, "alphabet %s\n", strings.Join(names, " "))
	}
	if f.vars.Len() > 0 {
		fmt.Fprintf(bw, "vars %s\n", strings.Join(f.vars.names, " "))
	}
	fmt.Fprintf(bw, "states %d\n", f.NumStates())
	fmt.Fprintf(bw, "start %d\n", f.start)
	for s := 0; s < f.NumStates(); s++ {
		e := f.ext[s]
		if e.IsEmpty() {
			continue
		}
		names := make([]string, 0, e.Len())
		for _, id := range e.IDs() {
			names = append(names, f.vars.Name(id))
		}
		sort.Strings(names)
		fmt.Fprintf(bw, "ext %d %s\n", s, strings.Join(names, " "))
	}
	for s := 0; s < f.NumStates(); s++ {
		for _, a := range f.adj[s] {
			fmt.Fprintf(bw, "arc %d %s %d\n", s, f.alphabet.Name(a.Act), a.To)
		}
	}
	return bw.Flush()
}

// FormatString renders f in the textual interchange format.
func FormatString(f *FSP) string {
	var sb strings.Builder
	// strings.Builder writes never fail.
	_ = Format(&sb, f)
	return sb.String()
}
