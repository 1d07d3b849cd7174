// Command ccsbench regenerates the paper's tables and figures as terminal
// tables — one experiment per artifact: E1–E20, E22 and E23. Each
// experiment's title names the paper result it reproduces; E15 onwards
// measure this implementation rather than paper claims: E15 the batch
// equivalence engine, E16 the shared CSR refinement kernel, E17 the
// compositional minimize-then-compose pipeline, E18 the on-the-fly game
// against minimize-then-compose, E19 the determinized on-the-fly game on
// nondeterministic specs, E20 the persistent artifact store's
// cold-vs-warm restart, E22 the observability overhead, and E23 the
// sync-vector protocol gallery's on-the-fly game against
// minimize-then-compose.
//
// Usage:
//
//	ccsbench [-exp e1,...|all] [-seed N] [-quick] [-benchjson FILE] [-e17json FILE] ... [-e23json FILE]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (e1..e20, e22, e23) or 'all'")
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
	benchjson := flag.String("benchjson", "", "file where E16 writes its JSON trajectory (default: not written)")
	e17json := flag.String("e17json", "", "file where E17 writes its JSON trajectory (default: not written)")
	e18json := flag.String("e18json", "", "file where E18 writes its JSON trajectory (default: not written)")
	e19json := flag.String("e19json", "", "file where E19 writes its JSON trajectory (default: not written)")
	e20json := flag.String("e20json", "", "file where E20 writes its JSON trajectory (default: not written)")
	e22json := flag.String("e22json", "", "file where E22 writes its JSON trajectory (default: not written)")
	e23json := flag.String("e23json", "", "file where E23 writes its JSON trajectory (default: not written)")
	summary := flag.Bool("summary", false, "print one gate-vs-measured table from the committed BENCH_E*.json files and exit")
	flag.Parse()
	benchJSONPath = *benchjson
	e17JSONPath = *e17json
	e18JSONPath = *e18json
	e19JSONPath = *e19json
	e20JSONPath = *e20json
	e22JSONPath = *e22json
	e23JSONPath = *e23json

	if *summary {
		if err := runSummary(os.Stdout, "."); err != nil {
			fmt.Fprintf(os.Stderr, "ccsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if err := run(os.Stdout, *exp, *seed, *quick); err != nil {
		fmt.Fprintf(os.Stderr, "ccsbench: %v\n", err)
		os.Exit(1)
	}
}

type experiment struct {
	id    string
	title string
	fn    func(w io.Writer, seed int64, quick bool) error
}

func experiments() []experiment {
	return []experiment{
		{"e1", "Theorem 3.1: strong equivalence, naive vs Paige-Tarjan", runE1},
		{"e2", "Lemma 3.2: naive method on the splitter-chain family", runE2},
		{"e3", "Theorem 4.1(a): observational equivalence is polynomial", runE3},
		{"e4", "Lemma 2.3.1: representative FSP size and construction time", runE4},
		{"e5", "Fig. 2 / Table II: the r.o.u. gallery verdicts", runE5},
		{"e6", "Theorem 4.1(b): ≈_k decider on the ladder family", runE6},
		{"e7", "Theorem 5.1: failure equivalence, blowup vs deterministic", runE7},
		{"e8", "Lemma 4.2 / Fig. 4: universality reduction", runE8},
		{"e9", "Prop. 2.2.3: hierarchy ≈ ⊆ ≡ ⊆ ≈_1 on random processes", runE9},
		{"e10", "Prop. 2.2.4: deterministic collapse", runE10},
		{"e11", "Fig. 1a / Table I: model classifier", runE11},
		{"e12", "Section 2.3(3): distributivity, language vs CCS", runE12},
		{"e13", "Thm 4.1(c) / Fig. 5b,5d: chaos and the trivial NFA", runE13},
		{"e14", "Section 6: extended star expressions are succinct", runE14},
		{"e15", "Batch engine: cached + pooled checking vs one-shot loop", runE15},
		{"e16", "CSR kernel: cached-index Paige-Tarjan vs edge-list path", runE16},
		{"e17", "Compositional pipeline: flat composition vs minimize-then-compose", runE17},
		{"e18", "On-the-fly game: lazy product-vs-spec checking vs minimize-then-compose", runE18},
		{"e19", "Determinized on-the-fly game: nondeterministic specs vs minimize-then-compose", runE19},
		{"e20", "Persistent artifact store: cold vs warm across a service restart", runE20},
		{"e22", "Observability overhead: traced + progress-sampled otf check vs bare", runE22},
		{"e23", "Sync-vector protocols: on-the-fly game vs minimize-then-compose over n-way rendezvous", runE23},
	}
}

func run(w io.Writer, which string, seed int64, quick bool) error {
	wanted := map[string]bool{}
	all := which == "all"
	for _, id := range strings.Split(which, ",") {
		wanted[strings.TrimSpace(strings.ToLower(id))] = true
	}
	ran := 0
	for _, e := range experiments() {
		if !all && !wanted[e.id] {
			continue
		}
		ran++
		fmt.Fprintf(w, "=== %s: %s ===\n", strings.ToUpper(e.id), e.title)
		if err := e.fn(w, seed, quick); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprintln(w)
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q", which)
	}
	return nil
}
