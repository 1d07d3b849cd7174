package ccs

import (
	"ccs/internal/core"
	"ccs/internal/failures"
	"ccs/internal/fsp"
	"ccs/internal/kequiv"
	"ccs/internal/simulation"
	"context"
)

// SpectrumVerdict is one row of the equivalence spectrum for a process
// pair.
type SpectrumVerdict struct {
	// Relation names the notion (Table II plus the standard companions).
	Relation string
	// Holds is the verdict.
	Holds bool
	// Skipped is set when the notion does not apply to the pair (failure
	// equivalence requires the restricted model), with the reason in Note.
	Skipped bool
	// Note carries auxiliary information (witness or reason).
	Note string
}

// Spectrum evaluates the start states of p and q under every implemented
// equivalence, ordered finest to coarsest. It is the executable form of
// Table II: each verdict is implied by the ones above it wherever the
// theory proves an inclusion (~ ⊆ ≈ᶜ ⊆ ≈; ≈ ⊆ ≡ ⊆ ≈_1 on restricted
// processes; ~ ⊆ simulation equivalence ⊆ ≈_1).
func Spectrum(p, q *Process) ([]SpectrumVerdict, error) {
	var out []SpectrumVerdict
	add := func(name string, holds bool, note string) {
		out = append(out, SpectrumVerdict{Relation: name, Holds: holds, Note: note})
	}

	strong, err := core.StrongEquivalent(p, q)
	if err != nil {
		return nil, err
	}
	note := ""
	if !strong {
		if phi, err := Explain(p, q); err == nil {
			note = "distinguished by " + phi
		}
	}
	add("strong (~)", strong, note)

	cong, err := core.ObservationCongruent(p, q)
	if err != nil {
		return nil, err
	}
	add("observation congruence (≈ᶜ)", cong, "")

	weak, err := core.WeakEquivalent(p, q)
	if err != nil {
		return nil, err
	}
	note = ""
	if !weak {
		if phi, err := ExplainWeak(p, q); err == nil {
			note = "distinguished by " + phi
		}
	}
	add("observational (≈)", weak, note)

	sim, err := simulation.Equivalent(p, q)
	if err != nil {
		return nil, err
	}
	add("simulation equivalence", sim, "")

	restrictedP := fsp.Classify(p).Restricted
	restrictedQ := fsp.Classify(q).Restricted
	if restrictedP && restrictedQ {
		failEq, w, err := failures.Equivalent(context.Background(), p, q)
		if err != nil {
			return nil, err
		}
		note = ""
		if !failEq && w != nil {
			note = "witness " + w.Format()
		}
		add("failure (≡)", failEq, note)

		ctEq, cw, err := failures.CompletedTraceEquivalent(p, q)
		if err != nil {
			return nil, err
		}
		note = ""
		if !ctEq && cw != nil {
			note = "witness trace " + failures.FormatTrace(cw.Failure.Trace, cw.Alphabet)
		}
		add("completed-trace", ctEq, note)
	} else {
		for _, name := range []string{"failure (≡)", "completed-trace"} {
			out = append(out, SpectrumVerdict{
				Relation: name,
				Skipped:  true,
				Note:     "requires the restricted model",
			})
		}
	}

	trace, err := kequiv.Equivalent(context.Background(), p, q, 1)
	if err != nil {
		return nil, err
	}
	note = ""
	if !trace {
		if eq, word, err := kequiv.TraceWitness(p, q); err == nil && !eq && word != nil {
			note = "distinguishing word " + joinWord(word)
		}
	}
	add("trace (≈_1)", trace, note)
	return out, nil
}

func joinWord(word []string) string {
	out := ""
	for i, w := range word {
		if i > 0 {
			out += "."
		}
		out += w
	}
	return out
}
