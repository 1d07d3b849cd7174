package ccs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file is the one serialization schema for check requests and
// reports. The CLI's batch lists and network descriptions, the HTTP
// server's wire bodies, and programmatic users all parse into the same
// CheckRequest and render from the same Report (request.go), so a query
// written for one front end replays on any other.
//
// Two encodings are supported:
//
//   - JSON, versioned by an envelope {"schema": 1, "requests": [...]} /
//     {"schema": 1, "reports": [...]}. A bare JSON array of requests is
//     accepted as shorthand for the current version.
//   - The line-oriented text formats the CLI has always used: the batch
//     pair list ("[RELATION] A B" per line) and the network description
//     ("component", "hide", "spec", "rel" directives). These parse into
//     the same types.

// SchemaVersion is the current request/report schema version. Decoders
// accept documents up to this version and reject newer ones.
const SchemaVersion = 1

// maxJSONDepth bounds the bracket-nesting depth a JSON document may use.
// The schema's types nest a small constant number of levels, so the bound
// is far above any legitimate document while keeping adversarial
// "[[[[…]]]]" bodies from burning a deep recursive decode. Exceeding it
// yields ErrJSONDepth.
const maxJSONDepth = 128

// ErrJSONDepth is returned (wrapped) by the JSON decoders when a document
// nests deeper than maxJSONDepth.
var ErrJSONDepth = fmt.Errorf("ccs: JSON document nests deeper than %d levels", maxJSONDepth)

// jsonShape is what scanJSON learns about a document's outline.
type jsonShape struct {
	first      byte // the first non-blank byte; 0 for a blank document
	requests   bool // the top-level object has a key spelled exactly "requests"
	escapedKey bool // some top-level key holds an escape
}

// scanJSON is the one byte pass the JSON decoders make before decoding.
// It rejects bracket nesting past maxJSONDepth: brackets inside string
// literals (and escaped quotes inside those) don't count. It also reads
// the document's outline for DecodeRequests. Malformed documents are left
// for the decoder to diagnose.
func scanJSON(data []byte) (jsonShape, error) {
	var shape jsonShape
	// keyNext: the next string is a key of the top-level object, as it is
	// right after that object's '{' or one of its commas.
	depth, seen, keyNext := 0, false, false
	for i := 0; i < len(data); i++ {
		c := data[i]
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		}
		if !seen {
			shape.first, seen = c, true
		}
		switch c {
		case '"':
			end, escaped := skipString(data, i)
			if keyNext && shape.first == '{' {
				if escaped {
					shape.escapedKey = true
				} else if string(data[i+1:end]) == "requests" {
					shape.requests = true
				}
			}
			keyNext = false
			i = end
		case '{', '[':
			depth++
			if depth > maxJSONDepth {
				return shape, ErrJSONDepth
			}
			keyNext = depth == 1
		case '}', ']':
			depth--
		case ',':
			keyNext = depth == 1
		}
	}
	return shape, nil
}

// skipString returns the index of the closing quote of the string literal
// opening at data[i], or len(data) when it is unterminated, and whether
// the literal holds an escape. An escape covers the byte after its
// backslash, so an escaped quote does not close the literal.
func skipString(data []byte, i int) (end int, escaped bool) {
	end, quote := i+1, -1
	for {
		if quote < end {
			k := bytes.IndexByte(data[end:], '"')
			if k < 0 {
				return len(data), escaped
			}
			quote = end + k
		}
		k := bytes.IndexByte(data[end:quote], '\\')
		if k < 0 {
			return quote, escaped
		}
		end, escaped = end+k+2, true
	}
}

// RequestEnvelope is the versioned JSON document carrying requests.
type RequestEnvelope struct {
	Schema   int            `json:"schema"`
	Requests []CheckRequest `json:"requests"`
}

// ReportEnvelope is the versioned JSON document carrying reports.
type ReportEnvelope struct {
	Schema  int      `json:"schema"`
	Reports []Report `json:"reports"`
}

// EncodeRequests renders requests as a versioned JSON document.
func EncodeRequests(reqs []CheckRequest) ([]byte, error) {
	return json.MarshalIndent(RequestEnvelope{Schema: SchemaVersion, Requests: reqs}, "", "  ")
}

// EncodeReports renders reports as a versioned JSON document.
func EncodeReports(reps []Report) ([]byte, error) {
	return json.MarshalIndent(ReportEnvelope{Schema: SchemaVersion, Reports: reps}, "", "  ")
}

// DecodeRequests parses a JSON request document: a versioned envelope, a
// bare array of requests, or a single request object. An object is an
// envelope when it has a top-level "requests" key, so misspelled envelope
// fields fail the strict decode loudly instead of parsing as an empty
// request. The document is read in one byte pass and one strict decode.
func DecodeRequests(data []byte) ([]CheckRequest, error) {
	shape, err := scanJSON(data)
	if err != nil {
		return nil, err
	}
	envelope := shape.requests
	if !envelope && shape.escapedKey {
		// An escaped key may still spell "requests"; sniff the decoded
		// keys through a raw decode.
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(data, &keys); err != nil {
			return nil, fmt.Errorf("ccs: invalid request document: %w", err)
		}
		_, envelope = keys["requests"]
	}
	switch {
	case shape.first == '[':
		var reqs []CheckRequest
		if err := strictUnmarshal(data, &reqs); err != nil {
			return nil, err
		}
		return reqs, nil
	case envelope:
		var env RequestEnvelope
		if err := strictUnmarshal(data, &env); err != nil {
			return nil, err
		}
		if env.Schema > SchemaVersion {
			return nil, fmt.Errorf("ccs: request schema version %d is newer than supported %d", env.Schema, SchemaVersion)
		}
		return env.Requests, nil
	}
	var req CheckRequest
	if err := strictUnmarshal(data, &req); err != nil {
		return nil, err
	}
	return []CheckRequest{req}, nil
}

// DecodeReports parses a versioned JSON report document.
func DecodeReports(data []byte) ([]Report, error) {
	if _, err := scanJSON(data); err != nil {
		return nil, err
	}
	var env ReportEnvelope
	if err := strictUnmarshal(data, &env); err != nil {
		return nil, err
	}
	if env.Schema > SchemaVersion {
		return nil, fmt.Errorf("ccs: report schema version %d is newer than supported %d", env.Schema, SchemaVersion)
	}
	return env.Reports, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields, so a typo in a
// request ("relatoin") is an input error rather than a silently defaulted
// query.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("ccs: invalid request document: %w", err)
	}
	var trailing any
	if err := dec.Decode(&trailing); err != io.EOF {
		return fmt.Errorf("ccs: trailing data after JSON document")
	}
	return nil
}

// ParseRequests reads a request stream in either encoding, sniffing the
// first non-blank byte: '{' or '[' selects JSON, anything else the batch
// pair-list text format with defaultRel filling unlabeled lines.
func ParseRequests(r io.Reader, defaultRel string) ([]CheckRequest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	for _, c := range data {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '{', '[':
			return DecodeRequests(data)
		}
		break
	}
	return ParseBatchList(strings.NewReader(string(data)), defaultRel)
}

// ParseBatchList reads the CLI's batch pair list: one query per line,
//
//	[RELATION] A B
//
// where RELATION is any ParseRelation name (defaultRel when omitted) and
// A, B are process sources — file paths, "expr:" expressions, or anything
// else a ProcessLoader resolves. Blank lines and '#' comments are
// skipped. Each line becomes a labeled CheckRequest.
func ParseBatchList(r io.Reader, defaultRel string) ([]CheckRequest, error) {
	var reqs []CheckRequest
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		relName := defaultRel
		switch len(fields) {
		case 2:
			// A relation name in first position means the second process
			// was forgotten; diagnose that instead of failing to open a
			// file literally called "weak". (Prefix a path with ./ in the
			// unlikely case a process file shares a relation name.)
			if _, _, err := ParseRelation(fields[0]); err == nil {
				return nil, fmt.Errorf("line %d: relation %q needs two process arguments", lineNo, fields[0])
			}
		case 3:
			relName = fields[0]
			fields = fields[1:]
		default:
			return nil, fmt.Errorf("line %d: want [RELATION] A B, got %d fields", lineNo, len(fields))
		}
		if _, _, err := ParseRelation(relName); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		reqs = append(reqs, NewCheck(relName, fields[0], fields[1],
			WithLabel(fmt.Sprintf("%s %s %s", relName, fields[0], fields[1]))))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("no queries in list")
	}
	return reqs, nil
}

// ParseNetworkDescription reads the CLI's network description:
//
//	name N                      # optional network name
//	component A [old=new ...]   # add an instance of process source A,
//	                            # optionally relabeling its actions
//	component 5 x A [old=new ...] # add 5 instances of A (parameterized
//	                            # instantiation; same relabeling for each)
//	sync A B ... [-> RES]       # n-way rendezvous: distinct components
//	                            # jointly fire A, B, ... as one step
//	                            # labelled RES (omitted -> internal tau)
//	hide NAME...                # restrict channels (handshakes survive)
//	spec S                      # the specification process source
//	rel REL                     # relation name (returned separately)
//
// '#' starts a comment. The description parses into the data form; pass
// the result to Checker.Do via NewNetworkCheck, or materialize it with
// NetworkRequest.BuildNetwork. rel is empty when the description has no
// rel directive.
func ParseNetworkDescription(r io.Reader) (NetworkRequest, string, error) {
	var nr NetworkRequest
	var rel string
	fail := func(lineNo int, format string, args ...any) (NetworkRequest, string, error) {
		return NetworkRequest{}, "", fmt.Errorf("line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "name":
			if len(fields) != 2 {
				return fail(lineNo, "name wants one argument")
			}
			nr.Name = fields[1]
		case "component":
			if len(fields) < 2 {
				return fail(lineNo, "component wants a process argument")
			}
			// Parameterized form: "component COUNT x NAME [old=new ...]".
			// COUNT must be all digits and be followed by a literal "x",
			// so a process file named "2" still parses in the plain form.
			count := 0
			rest := fields[1:]
			if len(rest) >= 3 && rest[1] == "x" && isAllDigits(rest[0]) {
				n, err := strconv.Atoi(rest[0])
				if err != nil || n < 1 {
					return fail(lineNo, "component count %q is not a positive integer", rest[0])
				}
				count = n
				rest = rest[2:]
			}
			var relabel map[string]string
			for _, pair := range rest[1:] {
				old, to, ok := strings.Cut(pair, "=")
				if !ok || old == "" || to == "" {
					return fail(lineNo, "relabeling %q is not old=new", pair)
				}
				if relabel == nil {
					relabel = map[string]string{}
				}
				relabel[old] = to
			}
			nr.Components = append(nr.Components, NetworkComponentRef{Process: rest[0], Relabel: relabel, Count: count})
		case "sync":
			args := fields[1:]
			result := ""
			if i := indexOf(args, "->"); i >= 0 {
				if i != len(args)-2 {
					return fail(lineNo, "sync wants PART PART ... [-> RESULT]")
				}
				result = args[len(args)-1]
				args = args[:i]
			}
			if len(args) < 2 {
				return fail(lineNo, "sync wants at least two parts")
			}
			nr.Sync = append(nr.Sync, NetworkSyncRule{Parts: append([]string(nil), args...), Result: result})
		case "hide":
			if len(fields) < 2 {
				return fail(lineNo, "hide wants channel names")
			}
			nr.Hide = append(nr.Hide, fields[1:]...)
		case "spec":
			if len(fields) != 2 {
				return fail(lineNo, "spec wants one process argument")
			}
			nr.Spec = fields[1]
		case "rel":
			if len(fields) != 2 {
				return fail(lineNo, "rel wants one relation name")
			}
			rel = fields[1]
		default:
			return fail(lineNo, "unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return NetworkRequest{}, "", err
	}
	if len(nr.Components) == 0 {
		return NetworkRequest{}, "", fmt.Errorf("network description has no component directives")
	}
	return nr, rel, nil
}

// isAllDigits reports whether s is a nonempty ASCII-digit string.
func isAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// indexOf returns the index of the first occurrence of want in ss, or -1.
func indexOf(ss []string, want string) int {
	for i, s := range ss {
		if s == want {
			return i
		}
	}
	return -1
}
