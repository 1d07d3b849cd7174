package ccs_test

import (
	"context"
	"encoding/json"
	"testing"

	"ccs"
)

// TestDoTracePair: a traced pair query returns a timeline whose spans
// carry the parse and solve phases, with sane offsets, and ElapsedMS is
// populated (it was silently zero before the facade grew tracing). The
// solve span says what decided the pair: a+a and a have isomorphic
// ≈-quotients.
func TestDoTracePair(t *testing.T) {
	c := ccs.NewChecker()
	rep := c.Do(context.Background(), ccs.NewCheck("weak", "expr:a+a", "expr:a", ccs.WithTrace()), nil)
	if rep.Error != nil {
		t.Fatalf("traced pair: %v", rep.Error)
	}
	if rep.ElapsedMS <= 0 {
		t.Fatalf("ElapsedMS not populated: %+v", rep)
	}
	if rep.Trace == nil || rep.Trace.ID == "" {
		t.Fatalf("no trace on traced request: %+v", rep)
	}
	phases := map[string]bool{}
	var sum float64
	for _, sp := range rep.Trace.Spans {
		phases[sp.Phase] = true
		if sp.StartMS < 0 || sp.DurationMS < 0 {
			t.Fatalf("span %q has negative timing: %+v", sp.Phase, sp)
		}
		sum += sp.DurationMS
		if sp.Phase == "solve" && sp.Attrs["decided-by"] != "isomorphism" {
			t.Fatalf("solve span attributes %v: want decided-by=isomorphism", sp.Attrs)
		}
	}
	for _, want := range []string{"parse", "quotient", "solve"} {
		if !phases[want] {
			t.Fatalf("missing %q span; got %v", want, phases)
		}
	}
	if sum > rep.ElapsedMS*1.5+1 {
		t.Fatalf("span durations (%.3fms) exceed wall time (%.3fms): spans overlap", sum, rep.ElapsedMS)
	}
}

// TestDoTraceNetwork: a traced network query records parse, vet and the
// engine's exploration phases, and the report round-trips through JSON.
func TestDoTraceNetwork(t *testing.T) {
	cell := "fsp cell\nalphabet in out'\nstates 2\narc 0 in 1\narc 1 out' 0\n"
	net := ccs.NetworkRequest{
		Components: []ccs.NetworkComponentRef{{Process: cell}},
		Spec:       cell,
	}
	c := ccs.NewChecker()
	rep := c.Do(context.Background(), ccs.NewNetworkCheck("weak", net, ccs.WithTrace()), nil)
	if rep.Error != nil {
		t.Fatalf("traced network: %v", rep.Error)
	}
	phases := map[string]bool{}
	for _, sp := range rep.Trace.Spans {
		phases[sp.Phase] = true
	}
	for _, want := range []string{"parse", "vet", "quotient", "otf-explore"} {
		if !phases[want] {
			t.Fatalf("missing %q span; got %v", want, phases)
		}
	}

	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back ccs.Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Trace == nil || back.Trace.ID != rep.Trace.ID || len(back.Trace.Spans) != len(rep.Trace.Spans) {
		t.Fatalf("trace did not round-trip: %+v vs %+v", back.Trace, rep.Trace)
	}
}

// TestDoNoTraceByDefault pins that an untraced request keeps Report.Trace
// nil — the zero-cost path.
func TestDoNoTraceByDefault(t *testing.T) {
	c := ccs.NewChecker()
	rep := c.Do(context.Background(), ccs.NewCheck("weak", "expr:a", "expr:a"), nil)
	if rep.Error != nil || rep.Trace != nil {
		t.Fatalf("untraced request grew a trace: %+v", rep)
	}
}
