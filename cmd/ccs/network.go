package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ccs"
)

// cmdNetwork checks a network of communicating processes against a
// specification through the compositional minimize-then-compose pipeline,
// or — with -otf — through the on-the-fly game that never materializes
// the product. The network FILE has one directive per line:
//
//	component A [old=new ...]   # add an instance of process file A,
//	                            # optionally relabeling its actions
//	hide NAME...                # restrict channels (handshakes survive)
//	spec S                      # the specification process
//	rel REL                     # relation (overridden by -rel)
//
// (parsed by ccs.ParseNetworkDescription into the same NetworkRequest the
// batch schema and `ccs serve` speak). Process arguments are files or
// "expr:" expressions, like everywhere else; '#' starts a comment.
// Without a spec the composed (minimized) process is printed in the
// interchange format instead of checked. -flat skips component
// minimization; -stats additionally materializes the flat product's
// refinement index to report its exact size, reports the checker's
// cache/store counters, and, with -otf, reports the route actually taken
// (otf, otf-determinized, or mtc-fallback with the reason) plus the
// game's exploration and scheduler counters: pairs interned and explored,
// the deepest tau-closure walk the walk memo left to run, and the
// work-stealing pool's workers / steals / utilization. An
// inequivalent on-the-fly verdict prints the game's distinguishing
// counterexample. -cache-dir persists derived artifacts across runs.
//
// Exit codes align with ccs batch: 0 equivalent, 1 inequivalent, 2 usage
// or input error, 3 when the query itself failed to check (e.g. a
// relation's side conditions were violated by the composed product).
func cmdNetwork(args []string) (*bool, error) {
	fs := flag.NewFlagSet("network", flag.ContinueOnError)
	relFlag := fs.String("rel", "", "relation (default: the file's rel directive, else weak)")
	flat := fs.Bool("flat", false, "compose the flat product (skip component minimization)")
	otfFlag := fs.Bool("otf", false, "check on the fly (lazy product-vs-spec game; nondeterministic specs are determinized lazily, with a fallback only when the game cannot play)")
	stats := fs.Bool("stats", false, "report flat product size and cache/store counters")
	cacheDir := fs.String("cache-dir", "", "persistent artifact store directory (empty = memory-only)")
	strictVet := fs.Bool("strict-vet", false, "fail (exit 2) when the vet pre-flight reports findings")
	traceFlag := fs.Bool("trace", false, "print the query's phase timeline (parse, vet, quotient, otf-explore, ...) on stderr")
	progress := fs.Bool("progress", false, "print a live exploration progress line on stderr (needs -otf)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("network wants one description file argument (or - for stdin)")
	}
	if *flat && *otfFlag {
		return nil, fmt.Errorf("-flat and -otf are mutually exclusive")
	}
	if *traceFlag && *flat {
		return nil, fmt.Errorf("-trace follows the checking facade; it does not apply to -flat")
	}
	if *progress && !*otfFlag {
		return nil, fmt.Errorf("-progress reports the on-the-fly game; it needs -otf")
	}
	var in io.Reader = os.Stdin
	if fs.Arg(0) != "-" {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	nr, fileRel, err := ccs.ParseNetworkDescription(in)
	if err != nil {
		return nil, err
	}
	// Component references resolve relative to the description file, so a
	// gallery directory is self-contained wherever the command runs from.
	descDir := ""
	if fs.Arg(0) != "-" {
		descDir = filepath.Dir(fs.Arg(0))
	}
	load := loadProcessFrom(descDir)
	// Pre-flight: the same static analysis `ccs vet` runs, before any
	// state-space work. Findings are warnings on stderr; -strict-vet makes
	// them fatal.
	if err := vetPreflight(nr, load, "", *strictVet); err != nil {
		return nil, err
	}
	relName := "weak"
	if fileRel != "" {
		relName = fileRel
	}
	if *relFlag != "" {
		relName = *relFlag
	}
	rel, k, err := ccs.ParseRelation(relName)
	if err != nil {
		return nil, err
	}
	checker, err := newCLIChecker(*cacheDir)
	if err != nil {
		return nil, err
	}

	// The paths below that materialize the network themselves (-stats
	// size report, -flat, spec-less printing) resolve it here; component
	// load failures are input errors, exit 2.
	var net *ccs.Network
	var spec *ccs.Process
	if *stats || *flat || nr.Spec == "" {
		net, spec, err = nr.BuildNetwork(load)
		if err != nil {
			return nil, err
		}
	}

	if *stats {
		idx, _, err := net.Index()
		if err != nil {
			return nil, queryErr(err)
		}
		fmt.Fprintf(os.Stderr, "flat product: %d states, %d transitions\n", idx.N(), idx.NumEdges())
		defer func() { fmt.Fprintln(os.Stderr, checker.Stats().Render()) }()
	}

	if nr.Spec == "" {
		// No spec: emit the composed process itself. That necessarily
		// materializes the product, which is exactly what -otf promises
		// not to do — reject the combination instead of ignoring the flag.
		if *otfFlag {
			return nil, fmt.Errorf("-otf checks against a spec and never composes; the description has no spec directive")
		}
		composed, err := composeFor(net, *flat)
		if err != nil {
			return nil, queryErr(err)
		}
		fmt.Fprintf(os.Stderr, "composed: %d states, %d transitions (%s)\n",
			composed.NumStates(), composed.NumTransitions(), routeName(*flat))
		fmt.Print(ccs.FormatProcess(composed))
		return nil, nil
	}

	var eq bool
	route := routeName(*flat)
	counterexample := ""
	if *flat {
		composed, err := net.FSP()
		if err != nil {
			return nil, queryErr(err)
		}
		eq, err = ccs.Equivalent(composed, spec, rel, k)
		if err != nil {
			return nil, queryErr(err)
		}
	} else {
		// The spec'd check goes through the request facade — the same
		// CheckRequest the batch schema and `ccs serve` speak.
		reqRoute := ccs.RouteMTC
		if *otfFlag {
			reqRoute = "otf"
		}
		opts := []ccs.CheckOption{ccs.WithRoute(reqRoute)}
		if *traceFlag {
			opts = append(opts, ccs.WithTrace())
		}
		ctx := context.Background()
		if *progress {
			ctx = ccs.WithOTFProgress(ctx, otfProgressPrinter(os.Stderr), 200*time.Millisecond)
		}
		req := ccs.NewNetworkCheck(relName, nr, opts...)
		rep := checker.Do(ctx, req, load)
		if *traceFlag {
			// Even a failed or timed-out query prints the phases that
			// completed — that partial timeline is the diagnosis.
			printTrace(os.Stderr, rep.Trace, rep.ElapsedMS)
		}
		if rep.Error != nil {
			err := fmt.Errorf("%s", rep.Error.Message)
			if rep.Error.Kind == ccs.ErrorKindInput {
				return nil, err
			}
			return nil, queryErr(err)
		}
		eq = rep.Equivalent
		counterexample = rep.Counterexample
		// Report the route actually taken — a silent route change is a
		// correctness trap for anyone benchmarking: the engine plays the
		// game directly, determinizes the spec on the fly, or falls back
		// to minimize-then-compose when the game genuinely cannot play.
		switch rep.Route {
		case ccs.RouteOTF:
			route = "on-the-fly"
		case ccs.RouteOTFDeterminized:
			route = "on-the-fly, determinized spec"
		case ccs.RouteMTCFallback:
			route = "minimize-then-compose fallback"
			fmt.Fprintf(os.Stderr, "on-the-fly route unavailable, fell back to minimize-then-compose: %s\n", rep.Fallback)
		}
		if *otfFlag && *stats {
			if rep.Route == ccs.RouteMTCFallback {
				fmt.Fprintf(os.Stderr, "otf route: %s (%s)\n", rep.Route, rep.Fallback)
			} else {
				fmt.Fprintf(os.Stderr, "otf route: %s\n", rep.Route)
			}
			if g := rep.OTF; g != nil {
				fmt.Fprintf(os.Stderr, "otf game: %d pairs interned, %d explored, max unmemoized tau walk %d\n",
					g.Pairs, g.Explored, g.MaxWalk)
				fmt.Fprintf(os.Stderr, "otf scheduler: %d workers, %d steals, %.0f%% utilization\n",
					g.Workers, g.Steals, 100*g.Utilization)
				if g.SpecSubsets > 0 {
					fmt.Fprintf(os.Stderr, "otf determinization: %d spec subsets interned\n", g.SpecSubsets)
				}
			}
		}
	}
	if eq {
		fmt.Printf("network equivalent to spec (%s, %s)\n", relName, route)
	} else {
		fmt.Printf("network NOT equivalent to spec (%s, %s)\n", relName, route)
		if counterexample != "" {
			fmt.Printf("counterexample: %s\n", counterexample)
		}
	}
	return &eq, nil
}

// queryErr marks an error that occurred while answering a well-formed
// query, aligning the network exit codes with ccs batch: the run got as
// far as checking, so the failure exits 3, distinguishable both from a
// usage/input error (2) and from an inequivalent verdict (1).
func queryErr(err error) error {
	return &exitError{code: 3, err: err}
}

func routeName(flat bool) string {
	if flat {
		return "flat composition"
	}
	return "minimize-then-compose"
}

// composeFor materializes the network on the selected route.
func composeFor(net *ccs.Network, flat bool) (*ccs.Process, error) {
	if flat {
		return ccs.ComposeNetwork(net)
	}
	return ccs.MinimizeNetwork(net)
}
