package fsp

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Aldebaran (.aut) interchange, the labelled-transition-system format used
// by the CADP and mCRL2 toolsets — the ecosystems where the paper's
// partition-refinement algorithms ended up in production. The format is
//
//	des (START, NUMTRANSITIONS, NUMSTATES)
//	(FROM, "LABEL", TO)
//	...
//
// LTS tools have no acceptance notion: every state is implicitly accepting,
// i.e. .aut describes exactly the paper's restricted model. The label "i"
// denotes the internal action and maps to tau. WriteAUT therefore refuses
// processes with non-restricted extensions rather than silently dropping
// them.

// WriteAUT renders f in Aldebaran format.
func WriteAUT(w io.Writer, f *FSP) error {
	if !Classify(f).Restricted {
		return fmt.Errorf("aut: %q is not restricted; .aut cannot express extensions", orFSP(f.name))
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "des (%d, %d, %d)\n", f.start, f.numTrans, f.NumStates())
	for s := 0; s < f.NumStates(); s++ {
		for _, a := range f.adj[s] {
			label := f.alphabet.Name(a.Act)
			if a.Act == Tau {
				label = "i"
			}
			fmt.Fprintf(bw, "(%d, %q, %d)\n", s, label, a.To)
		}
	}
	return bw.Flush()
}

// ParseAUT reads an Aldebaran-format LTS as a restricted FSP (every state
// accepting): it reads r to the end and parses the text as ParseAUTString
// does.
func ParseAUT(r io.Reader) (*FSP, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseAUTString(string(data))
}

// ParseAUTString parses an Aldebaran-format LTS as a restricted FSP (every
// state accepting). The label "i" (and mCRL2's "tau") become the tau
// action. Lines of any length are walked in place as ParseString walks
// them, labels are copied when interned, and a header declaring more than
// MaxStates states is an error.
func ParseAUTString(src string) (*FSP, error) {
	lines := lineWalker{rest: src}
	fail := func(format string, args ...any) (*FSP, error) {
		return nil, fmt.Errorf("aut line %d: %s", lines.n, fmt.Sprintf(format, args...))
	}

	var b *Builder
	for line, ok := lines.next(); ok; line, ok = lines.next() {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if b == nil {
			start, _, states, err := parseAUTHeader(line)
			if err != nil {
				return fail("%v", err)
			}
			if states > MaxStates {
				return fail("state count %d exceeds MaxStates (%d)", states, MaxStates)
			}
			b = NewBuilder("aut")
			b.AddStates(states)
			b.SetStart(State(start))
			for s := 0; s < states; s++ {
				b.Accept(State(s))
			}
			if b.Err() != nil {
				return fail("%v", b.Err())
			}
			continue
		}
		from, label, to, err := parseAUTEdge(line)
		if err != nil {
			return fail("%v", err)
		}
		if label == "i" || label == "tau" {
			label = TauName
		}
		b.Arc(State(from), internAction(b.alphabet, label), State(to))
		if b.Err() != nil {
			return fail("%v", b.Err())
		}
	}
	if b == nil {
		return nil, fmt.Errorf("aut: missing des header")
	}
	return b.Build()
}

func parseAUTHeader(line string) (start, trans, states int, err error) {
	if !strings.HasPrefix(line, "des") {
		return 0, 0, 0, fmt.Errorf("expected des header, got %q", line)
	}
	rest := strings.TrimSpace(strings.TrimPrefix(line, "des"))
	inner, err := stripParens(rest)
	if err != nil {
		return 0, 0, 0, err
	}
	parts := strings.Split(inner, ",")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("des header wants three fields, got %q", inner)
	}
	nums := make([]int, 3)
	for i, p := range parts {
		nums[i], err = strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("bad number %q in header", p)
		}
	}
	start, trans, states = nums[0], nums[1], nums[2]
	if states <= 0 || start < 0 || start >= states || trans < 0 {
		return 0, 0, 0, fmt.Errorf("inconsistent header (%d, %d, %d)", start, trans, states)
	}
	return start, trans, states, nil
}

func parseAUTEdge(line string) (from int, label string, to int, err error) {
	inner, err := stripParens(line)
	if err != nil {
		return 0, "", 0, err
	}
	// The label may contain commas, so split at the first and last comma.
	first := strings.Index(inner, ",")
	last := strings.LastIndex(inner, ",")
	if first < 0 || first == last {
		return 0, "", 0, fmt.Errorf("edge wants three fields: %q", line)
	}
	from, err = strconv.Atoi(strings.TrimSpace(inner[:first]))
	if err != nil {
		return 0, "", 0, fmt.Errorf("bad source in %q", line)
	}
	to, err = strconv.Atoi(strings.TrimSpace(inner[last+1:]))
	if err != nil {
		return 0, "", 0, fmt.Errorf("bad target in %q", line)
	}
	label = strings.TrimSpace(inner[first+1 : last])
	if len(label) >= 2 && label[0] == '"' && label[len(label)-1] == '"' {
		label = label[1 : len(label)-1]
	}
	if label == "" {
		return 0, "", 0, fmt.Errorf("empty label in %q", line)
	}
	return from, label, to, nil
}

func stripParens(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '(' || s[len(s)-1] != ')' {
		return "", fmt.Errorf("expected parenthesized tuple, got %q", s)
	}
	return s[1 : len(s)-1], nil
}
