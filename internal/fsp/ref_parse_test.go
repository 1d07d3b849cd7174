package fsp

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// refParse and refParseAUT are the bufio.Scanner parsers ParseString and
// ParseAUTString replaced, kept as the differential references of
// FuzzParseProcess. They read each line into a fresh string, split it with
// strings.Fields and grow each state's row by append; a line over 16 MiB
// is an error here and not in the parsers under test.
func refParse(r io.Reader) (*FSP, error) {
	var (
		b               *Builder
		name            string
		scanner         = bufio.NewScanner(r)
		lineno          int
		pendingAlphabet []string
		pendingVars     []string
	)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	fail := func(format string, args ...any) (*FSP, error) {
		return nil, fmt.Errorf("line %d: %s", lineno, fmt.Sprintf(format, args...))
	}
	for scanner.Scan() {
		lineno++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
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
			if pendingAlphabet != nil {
				return fail("duplicate alphabet declaration")
			}
			pendingAlphabet = fields[1:]
		case "vars":
			if b != nil {
				return fail("vars must precede states")
			}
			if pendingVars != nil {
				return fail("duplicate vars declaration")
			}
			pendingVars = fields[1:]
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
			b = NewBuilder(name)
			for _, a := range pendingAlphabet {
				if a == TauName {
					return fail("alphabet must not contain %q", TauName)
				}
				b.Action(a)
			}
			for _, v := range pendingVars {
				if _, err := b.vars.Intern(v); err != nil {
					return fail("%v", err)
				}
			}
			pendingAlphabet, pendingVars = nil, nil
			b.AddStates(n)
		case "start":
			if b == nil {
				return fail("start before states")
			}
			s, err := refParseState(fields, 1, b)
			if err != nil {
				return fail("%v", err)
			}
			b.SetStart(s)
		case "ext":
			if b == nil {
				return fail("ext before states")
			}
			s, err := refParseState(fields, 1, b)
			if err != nil {
				return fail("%v", err)
			}
			b.Extend(s, fields[2:]...)
		case "arc":
			if b == nil {
				return fail("arc before states")
			}
			if len(fields) != 4 {
				return fail("arc wants: arc FROM ACTION TO")
			}
			from, err := refParseState(fields, 1, b)
			if err != nil {
				return fail("%v", err)
			}
			to, err := refParseState(fields, 3, b)
			if err != nil {
				return fail("%v", err)
			}
			b.ArcName(from, fields[2], to)
		default:
			return fail("unknown directive %q", fields[0])
		}
		if b != nil && b.Err() != nil {
			return fail("%v", b.Err())
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("no states declaration found")
	}
	return b.Build()
}

func refParseState(fields []string, idx int, b *Builder) (State, error) {
	if idx >= len(fields) {
		return 0, fmt.Errorf("missing state operand")
	}
	n, err := strconv.Atoi(fields[idx])
	if err != nil || n < 0 || n >= len(b.adj) {
		return 0, fmt.Errorf("invalid state %q", fields[idx])
	}
	return State(n), nil
}

func refParseAUT(r io.Reader) (*FSP, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineno := 0
	fail := func(format string, args ...any) (*FSP, error) {
		return nil, fmt.Errorf("aut line %d: %s", lineno, fmt.Sprintf(format, args...))
	}

	var b *Builder
	for scanner.Scan() {
		lineno++
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if b == nil {
			start, _, states, err := parseAUTHeader(line)
			if err != nil {
				return fail("%v", err)
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
		b.ArcName(State(from), label, State(to))
		if b.Err() != nil {
			return fail("%v", b.Err())
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("aut: missing des header")
	}
	return b.Build()
}
