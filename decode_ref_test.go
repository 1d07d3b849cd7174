package ccs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ccs"
)

// refDecodeRequests is the five-pass request decoder DecodeRequests
// replaced, kept as the differential reference of FuzzDecodeRequests: a
// depth scan, a copy to trim leading blanks, a raw map decode to sniff
// for a "requests" key, and a strict decode over a second copy.
func refDecodeRequests(data []byte) ([]ccs.CheckRequest, error) {
	if err := refCheckJSONDepth(data); err != nil {
		return nil, err
	}
	trimmed := strings.TrimLeftFunc(string(data), func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r'
	})
	if strings.HasPrefix(trimmed, "[") {
		var reqs []ccs.CheckRequest
		if err := refStrictUnmarshal(data, &reqs); err != nil {
			return nil, err
		}
		return reqs, nil
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		return nil, fmt.Errorf("ccs: invalid request document: %w", err)
	}
	if _, isEnvelope := keys["requests"]; isEnvelope {
		var env ccs.RequestEnvelope
		if err := refStrictUnmarshal(data, &env); err != nil {
			return nil, err
		}
		if env.Schema > ccs.SchemaVersion {
			return nil, fmt.Errorf("ccs: request schema version %d is newer than supported %d", env.Schema, ccs.SchemaVersion)
		}
		return env.Requests, nil
	}
	var req ccs.CheckRequest
	if err := refStrictUnmarshal(data, &req); err != nil {
		return nil, err
	}
	return []ccs.CheckRequest{req}, nil
}

func refCheckJSONDepth(data []byte) error {
	depth, inString, escaped := 0, false, false
	for _, c := range data {
		switch {
		case escaped:
			escaped = false
		case inString:
			switch c {
			case '\\':
				escaped = true
			case '"':
				inString = false
			}
		default:
			switch c {
			case '"':
				inString = true
			case '{', '[':
				depth++
				if depth > 128 {
					return ccs.ErrJSONDepth
				}
			case '}', ']':
				depth--
			}
		}
	}
	return nil
}

func refStrictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(strings.NewReader(string(data)))
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
