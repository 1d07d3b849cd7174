package ccs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccs/internal/engine"
	"ccs/internal/fsp"
	"ccs/internal/obs"
	"ccs/internal/store"
)

// This file is the request-level facade: one CheckRequest type describes
// every equivalence question this module can answer — a process pair or a
// network against a specification — and one Report type carries every
// verdict. The same two types are the JSON wire schema of `ccs serve`
// (internal/server), the parsed form of the CLI's batch and network
// inputs (see schema.go), and the programmatic entry point (Checker.Do /
// DoAll), so a request round-trips unchanged between the three.

// Process sources. A CheckRequest names its processes as strings rather
// than *Process values so it can travel as data. A source is resolved in
// one of three ways:
//
//   - "expr:SRC" — a star expression (Section 2.3), as on the CLI;
//   - text containing a newline — an inline process in the textual
//     interchange format (or, by leading "des", Aldebaran .aut);
//   - anything else — an external reference (a file path), handed to the
//     ProcessLoader. A nil loader rejects references, which is how the
//     HTTP server keeps requests self-contained.

// ProcessLoader resolves an external process reference — for the CLI, a
// file path. Do memoizes calls per reference string, so a loader need not
// cache. A nil ProcessLoader rejects all external references.
type ProcessLoader func(ref string) (*Process, error)

// Route names for CheckRequest.Route and Report.Route. A pair query always
// reports RouteDirect. A network query runs RouteAuto (the on-the-fly game
// with its documented fallback), or is pinned with RouteOTF / RouteMTC;
// its report carries the route actually taken — for RouteAuto/RouteOTF one
// of the engine's route names (re-exported in network.go as RouteOTF,
// RouteOTFDeterminized, RouteMTCFallback).
const (
	// RouteAuto lets the engine choose (networks: on-the-fly first).
	RouteAuto = "auto"
	// RouteDirect is the pair-query route: quotient-cached direct check.
	RouteDirect = "direct"
	// RouteMTC pins a network query to minimize-then-compose.
	RouteMTC = "mtc"
)

// CheckRequest is one equivalence question. Construct with NewCheck or
// NewNetworkCheck (or unmarshal from JSON; the zero values of the optional
// fields are all valid). Exactly one of {P and Q} or Network must be set.
type CheckRequest struct {
	// Relation is a name ParseRelation accepts: "strong", "weak", "trace",
	// "failure", "congruence", "simulation", "kN", "limitedN". Empty means
	// "weak" for network requests and is an error for pair requests (the
	// CLI's batch parser fills its -rel default in).
	Relation string `json:"relation,omitempty"`
	// K overrides the bound of the approximant relations ("kN",
	// "limitedN") when positive; the number in the relation name is the
	// usual way to say it.
	K int `json:"k,omitempty"`

	// P and Q are the two process sources of a pair query.
	P string `json:"p,omitempty"`
	Q string `json:"q,omitempty"`

	// Network is the network of a network-vs-spec query.
	Network *NetworkRequest `json:"network,omitempty"`

	// Route pins the checking route: RouteAuto (default), "otf" or
	// RouteMTC for networks. Pair queries accept only RouteAuto and
	// RouteDirect.
	Route string `json:"route,omitempty"`

	// TimeoutMS bounds this query's wall time in milliseconds; 0 means no
	// per-query bound. An exceeded deadline reports ErrorKindTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Explain asks for a distinguishing witness on an inequivalent pair
	// verdict (an HML formula for strong/weak; network counterexamples
	// come free from the on-the-fly game and ignore this flag).
	Explain bool `json:"explain,omitempty"`

	// Trace asks for the query's phase timeline in Report.Trace: one span
	// per phase (parse, vet, quotient, solve, compose, otf-explore) with
	// wall time and key attributes. Tracing costs one
	// context value and a handful of timestamps per query.
	Trace bool `json:"trace,omitempty"`

	// Label is echoed into the Report, for correlating batches.
	Label string `json:"label,omitempty"`
}

// NetworkRequest describes a network of communicating processes — the
// parallel composition of its components, each optionally relabeled, with
// the Hide channels restricted afterwards — plus the specification to
// check it against. It is the data form of *Network.
type NetworkRequest struct {
	Name string `json:"name,omitempty"`
	// Components are composed left to right.
	Components []NetworkComponentRef `json:"components"`
	// Hide lists channels restricted after composition.
	Hide []string `json:"hide,omitempty"`
	// Sync lists n-way rendezvous vectors on top of the pairwise CCS
	// handshakes (compose.SyncRule); absent, the network is plain CCS —
	// the field is omitted from documents that don't use it, so the
	// schema stays version-compatible.
	Sync []NetworkSyncRule `json:"sync,omitempty"`
	// Spec is the specification process source. It may be empty only where
	// a caller wants the composed process itself (the CLI's spec-less
	// network form); Do rejects a request without one.
	Spec string `json:"spec,omitempty"`
}

// NetworkComponentRef is one component instance: a process source plus an
// optional action relabeling. Count > 1 instantiates the component that
// many times (each instance under the same relabeling — the parameterized
// "component COUNT x NAME" form); 0 means 1.
type NetworkComponentRef struct {
	Process string            `json:"process"`
	Relabel map[string]string `json:"relabel,omitempty"`
	Count   int               `json:"count,omitempty"`
}

// NetworkSyncRule is the data form of one sync vector: the actions that
// distinct components jointly fire and the label of the joint step
// (empty or "tau" for an internal rendezvous).
type NetworkSyncRule struct {
	Parts  []string `json:"parts"`
	Result string   `json:"result,omitempty"`
}

// CheckOption adjusts a CheckRequest under construction.
type CheckOption func(*CheckRequest)

// WithK sets the bound of an approximant relation ("kN", "limitedN").
func WithK(k int) CheckOption { return func(r *CheckRequest) { r.K = k } }

// WithRoute pins the checking route ("auto", "otf", "mtc").
func WithRoute(route string) CheckOption { return func(r *CheckRequest) { r.Route = route } }

// WithTimeout bounds the query's wall time; sub-millisecond durations
// round up to 1ms so a positive timeout never silently becomes "none".
func WithTimeout(d time.Duration) CheckOption {
	return func(r *CheckRequest) {
		ms := d.Milliseconds()
		if d > 0 && ms == 0 {
			ms = 1
		}
		r.TimeoutMS = ms
	}
}

// WithExplain asks for a distinguishing witness on inequivalence.
func WithExplain() CheckOption { return func(r *CheckRequest) { r.Explain = true } }

// WithLabel tags the request; the label is echoed in its Report.
func WithLabel(label string) CheckOption { return func(r *CheckRequest) { r.Label = label } }

// WithTrace asks for the query's phase timeline in Report.Trace.
func WithTrace() CheckOption { return func(r *CheckRequest) { r.Trace = true } }

// NewCheck builds a pair query: are p and q related by relation?
func NewCheck(relation, p, q string, opts ...CheckOption) CheckRequest {
	r := CheckRequest{Relation: relation, P: p, Q: q}
	for _, o := range opts {
		o(&r)
	}
	return r
}

// NewNetworkCheck builds a network-vs-spec query.
func NewNetworkCheck(relation string, net NetworkRequest, opts ...CheckOption) CheckRequest {
	r := CheckRequest{Relation: relation, Network: &net}
	for _, o := range opts {
		o(&r)
	}
	return r
}

// Error kinds of Report.Error, the coarse classification callers switch
// on; the exact cause is in the message. The CLI maps kinds to exit codes
// (input → 2, everything else → 3) and the server to HTTP status.
const (
	// ErrorKindInput: the request itself is malformed — an unknown
	// relation, an unresolvable or unparsable process, a bad route.
	ErrorKindInput = "input"
	// ErrorKindCheck: the query was well-formed but the check failed
	// (e.g. a relation's side conditions were violated).
	ErrorKindCheck = "check"
	// ErrorKindTimeout: the query's deadline expired.
	ErrorKindTimeout = "timeout"
	// ErrorKindCanceled: the batch was canceled before the query ran.
	ErrorKindCanceled = "canceled"
)

// ReportError is a query failure: a machine-readable kind plus the
// human-readable cause.
type ReportError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

func (e *ReportError) Error() string { return e.Message }

// Report is the outcome of one CheckRequest.
type Report struct {
	// Label echoes the request's label.
	Label string `json:"label,omitempty"`
	// Relation is the relation actually checked (the request's, with the
	// network default "weak" filled in).
	Relation string `json:"relation"`
	// Equivalent is the verdict; meaningful only when Error is nil.
	Equivalent bool `json:"equivalent"`
	// Route is the route actually taken: RouteDirect for pairs; for
	// networks "mtc", "otf", "otf-determinized" or "mtc-fallback".
	Route string `json:"route,omitempty"`
	// Fallback is the engine's reason when Route is "mtc-fallback".
	Fallback string `json:"fallback,omitempty"`
	// Counterexample is a distinguishing witness on inequivalence, when
	// one was produced: the on-the-fly game's trace for networks, an HML
	// formula for pairs checked with Explain.
	Counterexample string `json:"counterexample,omitempty"`
	// OTF carries the game's exploration statistics when a network query
	// was decided on the fly (nil on pair queries, pinned-mtc routes and
	// fallbacks).
	OTF *OTFStats `json:"otf,omitempty"`
	// Diagnostics carries the static-analysis findings about a network
	// query's network and spec (see VetNetwork and the Code* catalogue).
	// Vet runs on every network query — it is linear in the description —
	// so the server's /v1/network responses and the batch reports warn
	// about defective wirings alongside the verdict. Empty on pair
	// queries.
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
	// ElapsedMS is the query's wall time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Trace is the query's phase timeline when the request asked for one
	// (CheckRequest.Trace / WithTrace); nil otherwise. On a timed-out
	// query it holds the phases that completed before abandonment.
	Trace *TraceReport `json:"trace,omitempty"`
	// Error reports a failed query; the verdict fields are then
	// meaningless.
	Error *ReportError `json:"error,omitempty"`
}

// TraceReport is a query's phase timeline: an opaque trace ID (echoed by
// the server in the X-CCS-Trace header and its access log) plus one span
// per phase in completion order.
type TraceReport struct {
	ID    string      `json:"id"`
	Spans []TraceSpan `json:"spans"`
}

// TraceSpan is one timed phase of a query. Spans are flat, not nested:
// each covers a distinct stretch of the query's wall time, so their
// durations sum to roughly the query's ElapsedMS.
type TraceSpan struct {
	// Phase names the work: "parse", "vet", "quotient", "solve",
	// "compose", "otf-explore".
	Phase string `json:"phase"`
	// StartMS is the span's start offset from the query's start;
	// DurationMS its wall time. Both in milliseconds.
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
	// Attrs carries phase-specific details (route, pair counts, …).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// OTFStats is the on-the-fly game's exploration record: how much of the
// pair space the verdict cost and how the work-stealing pool behaved.
type OTFStats struct {
	// Pairs is the number of distinct (product, spec-side) pairs interned;
	// Explored counts the pairs whose local game checks ran (≤ Pairs when
	// the game exited early).
	Pairs    int `json:"pairs"`
	Explored int `json:"explored"`
	// MaxWalk is the deepest tau-closure walk (in tau steps) the game ran
	// for a weak-enabledness obligation. Walks are memoized, so this is
	// the depth of the walks the memo left to run.
	MaxWalk int `json:"max_walk"`
	// Workers, Steals and Utilization describe the scheduler: pool size,
	// successful batch steals, and mean-over-max per-worker explored load
	// (1 = perfectly balanced).
	Workers     int     `json:"workers"`
	Steals      int     `json:"steals"`
	Utilization float64 `json:"utilization"`
	// SpecSubsets is the number of spec subsets the determinized game
	// interned (0 on the direct route).
	SpecSubsets int `json:"spec_subsets,omitempty"`
}

// NewStoreChecker returns a Checker whose engine is backed by the
// persistent artifact store at dir (created if absent): the ~/≈/≈ᶜ
// quotients are spilled to disk and reloaded by later Checkers on the
// same directory, so warm runs skip the quotient derivations; the
// quotients' signature records are rebuilt in memory. maxBytes caps the
// store's size (0 = unbounded) with least-recently-used eviction.
func NewStoreChecker(dir string, maxBytes int64) (*Checker, error) {
	st, err := store.Open(dir, maxBytes)
	if err != nil {
		return nil, err
	}
	return &Checker{e: engine.NewWithStore(st)}, nil
}

// Do answers one request. The load callback resolves external process
// references (nil rejects them — every error is reported in the Report,
// never returned, so a batch of reports is always complete). Do is safe
// for concurrent use; artifact caching across requests comes from the
// Checker.
func (c *Checker) Do(ctx context.Context, req CheckRequest, load ProcessLoader) Report {
	return c.do(ctx, req, newLoadCache(load))
}

// PoolSize reports the worker-pool size DoAll will use for a given
// workers request and request count: non-positive workers selects
// GOMAXPROCS, and never more than one worker per request.
func PoolSize(workers, requests int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, requests)
}

// DoAll answers the requests over a pool of workers (workers <= 0 selects
// GOMAXPROCS), returning one Report per request in input order. External
// references are resolved through load once per distinct reference across
// the whole batch. Cancelling the context stops unstarted requests, which
// report ErrorKindCanceled (or ErrorKindTimeout if the context's own
// deadline expired).
func (c *Checker) DoAll(ctx context.Context, reqs []CheckRequest, workers int, load ProcessLoader) []Report {
	out := make([]Report, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	cache := newLoadCache(load)
	workers = PoolSize(workers, len(reqs))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(reqs) {
					return
				}
				out[i] = c.do(ctx, reqs[i], cache)
			}
		}()
	}
	wg.Wait()
	return out
}

// loadCache memoizes process resolution per source string, so a batch
// mentioning one file (or one inline text) many times parses it once and
// the engine cache sees one pointer.
type loadCache struct {
	load ProcessLoader
	mu   sync.Mutex
	seen map[string]*Process
	errs map[string]error
}

func newLoadCache(load ProcessLoader) *loadCache {
	return &loadCache{load: load, seen: map[string]*Process{}, errs: map[string]error{}}
}

func (lc *loadCache) resolve(src string) (*Process, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if p, ok := lc.seen[src]; ok {
		return p, nil
	}
	if err, ok := lc.errs[src]; ok {
		return nil, err
	}
	p, err := lc.resolveUncached(src)
	if err != nil {
		lc.errs[src] = err
		return nil, err
	}
	lc.seen[src] = p
	return p, nil
}

func (lc *loadCache) resolveUncached(src string) (*Process, error) {
	switch {
	case src == "":
		return nil, fmt.Errorf("empty process source")
	case strings.HasPrefix(src, "expr:"):
		return FromExpression(src[len("expr:"):])
	case strings.ContainsRune(src, '\n'):
		if strings.HasPrefix(strings.TrimSpace(src), "des") {
			return fsp.ParseAUTString(src)
		}
		return ParseProcessString(src)
	case lc.load != nil:
		return lc.load(src)
	default:
		return nil, fmt.Errorf("external process reference %q not allowed here; inline the process text or use expr:", src)
	}
}

func inputErr(format string, args ...any) *ReportError {
	return &ReportError{Kind: ErrorKindInput, Message: fmt.Sprintf(format, args...)}
}

// classifyErr turns a check-time error into a ReportError, mapping context
// expiry onto the timeout/canceled kinds.
func classifyErr(ctx context.Context, err error) *ReportError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &ReportError{Kind: ErrorKindTimeout, Message: err.Error()}
	case errors.Is(err, context.Canceled):
		return &ReportError{Kind: ErrorKindCanceled, Message: err.Error()}
	case ctx.Err() != nil:
		// The engine may wrap the context error beyond errors.Is reach;
		// trust the context itself.
		kind := ErrorKindCanceled
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			kind = ErrorKindTimeout
		}
		return &ReportError{Kind: kind, Message: err.Error()}
	default:
		return &ReportError{Kind: ErrorKindCheck, Message: err.Error()}
	}
}

func (c *Checker) do(ctx context.Context, req CheckRequest, cache *loadCache) (rep Report) {
	rep = Report{Label: req.Label, Relation: req.Relation}
	start := time.Now()

	// The request's trace (if any) is installed before the deferred
	// bookkeeping closes over it: on a timeout the worker goroutine is
	// abandoned mid-phase, and rendering the trace here still captures
	// every span that completed (Spans is a mutex-guarded snapshot).
	var tr *obs.Trace
	if req.Trace {
		if tr = obs.TraceFrom(ctx); tr == nil {
			tr = obs.NewTrace(obs.RequestIDFrom(ctx))
			ctx = obs.WithTrace(ctx, tr)
		}
	}
	defer func() {
		rep.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		if tr != nil {
			rep.Trace = renderTrace(tr)
		}
		recordQueryMetrics(&rep)
	}()

	isNetwork := req.Network != nil
	if isNetwork && (req.P != "" || req.Q != "") {
		rep.Error = inputErr("request mixes a network with pair processes p/q")
		return rep
	}
	if !isNetwork && (req.P == "" || req.Q == "") {
		rep.Error = inputErr("pair request needs both p and q")
		return rep
	}
	if rep.Relation == "" {
		if !isNetwork {
			rep.Error = inputErr("pair request needs a relation")
			return rep
		}
		rep.Relation = "weak"
	}
	rel, k, err := ParseRelation(rep.Relation)
	if err != nil {
		rep.Error = inputErr("%v", err)
		return rep
	}
	if req.K > 0 {
		k = req.K
	}
	route := req.Route
	if route == "" {
		route = RouteAuto
	}

	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	run := func(r *Report) {
		if isNetwork {
			c.doNetwork(ctx, req, rel, k, route, cache, r)
		} else {
			c.doPair(ctx, req, rel, k, route, cache, r)
		}
	}
	if ctx.Done() == nil {
		run(&rep)
		return rep
	}
	// The engine observes the context between major stages and inside the
	// subset walks of trace, ≈_k and failure queries, but not inside a
	// partition solve, so a deadline must be enforced here: the check runs
	// aside and an expired context abandons it mid-flight. The abandoned
	// goroutine finishes its current stage against the shared caches —
	// wasted work, but it keeps the report (and a serving connection)
	// timely.
	inner := rep
	done := make(chan struct{})
	go func() {
		defer close(done)
		run(&inner)
	}()
	select {
	case <-done:
		rep = inner
	case <-ctx.Done():
		rep.Error = classifyErr(ctx, ctx.Err())
	}
	return rep
}

func (c *Checker) doPair(ctx context.Context, req CheckRequest, rel Relation, k int, route string, cache *loadCache, rep *Report) {
	if route != RouteAuto && route != RouteDirect {
		rep.Error = inputErr("route %q does not apply to a pair query", route)
		return
	}
	sp := obs.TraceFrom(ctx).Start("parse")
	p, err := cache.resolve(req.P)
	if err != nil {
		sp.End()
		rep.Error = inputErr("process p: %v", err)
		return
	}
	q, err := cache.resolve(req.Q)
	sp.End(obs.AInt("p-states", int64(p.NumStates())))
	if err != nil {
		rep.Error = inputErr("process q: %v", err)
		return
	}
	eq, err := c.Check(ctx, p, q, rel, k)
	if err != nil {
		rep.Error = classifyErr(ctx, err)
		return
	}
	rep.Equivalent, rep.Route = eq, RouteDirect
	if !eq && req.Explain {
		rep.Counterexample = pairWitness(p, q, rel)
	}
}

// pairWitness produces a distinguishing witness for an inequivalent pair
// where one is cheap to compute; witness generation is best-effort and an
// empty string just means "none available".
func pairWitness(p, q *Process, rel Relation) string {
	switch rel {
	case Strong, Simulation:
		if phi, err := Explain(p, q); err == nil {
			return phi
		}
	case Weak, Congruence:
		if phi, err := ExplainWeak(p, q); err == nil {
			return phi
		}
	case Trace:
		if eq, word, err := TraceWitness(p, q); err == nil && !eq {
			return strings.Join(word, " ")
		}
	case Failure:
		if _, w, err := FailureEquivalent(p, q); err == nil && w != nil {
			return fmt.Sprintf("after %q refuses %s", w.Trace, w.Refusal)
		}
	}
	return ""
}

func (c *Checker) doNetwork(ctx context.Context, req CheckRequest, rel Relation, k int, route string, cache *loadCache, rep *Report) {
	nr := req.Network
	if nr.Spec == "" {
		rep.Error = inputErr("network request needs a spec")
		return
	}
	tr := obs.TraceFrom(ctx)
	sp := tr.Start("parse")
	net, err := nr.build(cache)
	if err != nil {
		sp.End()
		rep.Error = inputErr("%v", err)
		return
	}
	spec, err := cache.resolve(nr.Spec)
	sp.End(obs.AInt("components", int64(len(net.Components))))
	if err != nil {
		rep.Error = inputErr("spec: %v", err)
		return
	}
	// Every network query is vetted — the pass is linear in the
	// description, and a defective wiring explains many a surprising
	// verdict. Findings ride along in the report; they never block the
	// check (the CLI's -strict-vet enforces them before submitting).
	sp = tr.Start("vet")
	if diags, err := VetNetwork(net, spec); err == nil {
		rep.Diagnostics = diags
	}
	sp.End(obs.AInt("diagnostics", int64(len(rep.Diagnostics))))
	switch route {
	case RouteAuto, "otf":
		eq, info, err := c.CheckNetworkOTFInfo(ctx, net, spec, rel, k)
		if err != nil {
			rep.Error = classifyErr(ctx, err)
			return
		}
		rep.Equivalent = eq
		rep.Route = info.Route
		rep.Fallback = info.Fallback
		rep.Counterexample = info.CounterexampleString()
		if info.OnTheFly {
			rep.OTF = &OTFStats{
				Pairs:       info.Pairs,
				Explored:    info.Explored,
				MaxWalk:     info.MaxWalk,
				Workers:     info.Workers,
				Steals:      info.Steals,
				Utilization: info.Utilization,
				SpecSubsets: info.SpecSubsets,
			}
		}
	case RouteMTC:
		eq, err := c.CheckNetwork(ctx, net, spec, rel, k)
		if err != nil {
			rep.Error = classifyErr(ctx, err)
			return
		}
		rep.Equivalent, rep.Route = eq, RouteMTC
	default:
		rep.Error = inputErr("unknown route %q (want auto, otf or mtc)", route)
	}
}

// build materializes the network from its data form, resolving every
// component through the cache so repeated instances share one *Process.
func (nr *NetworkRequest) build(cache *loadCache) (*Network, error) {
	if len(nr.Components) == 0 {
		return nil, fmt.Errorf("network has no components")
	}
	net := &Network{Name: nr.Name}
	for i, cr := range nr.Components {
		count := cr.Count
		if count == 0 {
			count = 1
		}
		if count < 0 || count > maxComponentCount {
			return nil, fmt.Errorf("component %d: count %d outside 1..%d", i+1, cr.Count, maxComponentCount)
		}
		p, err := cache.resolve(cr.Process)
		if err != nil {
			return nil, fmt.Errorf("component %d: %w", i+1, err)
		}
		for j := 0; j < count; j++ {
			net.Add(p, cr.Relabel)
		}
	}
	net.Hide(nr.Hide...)
	for _, r := range nr.Sync {
		net.AddSync(r.Result, r.Parts...)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// maxComponentCount bounds the parameterized instantiation of one
// component ref: the product is exponential in the component count, so a
// count beyond this is a typo or an attack, not a workload.
const maxComponentCount = 1024

// BuildNetwork materializes a NetworkRequest into a *Network plus its
// (possibly nil) resolved spec, resolving external references through
// load. This is the long form behind Checker.Do for callers — like the
// CLI's spec-less compose-and-print mode — that need the network itself.
func (nr NetworkRequest) BuildNetwork(load ProcessLoader) (*Network, *Process, error) {
	cache := newLoadCache(load)
	net, err := nr.build(cache)
	if err != nil {
		return nil, nil, err
	}
	var spec *Process
	if nr.Spec != "" {
		if spec, err = cache.resolve(nr.Spec); err != nil {
			return nil, nil, fmt.Errorf("spec: %w", err)
		}
	}
	return net, spec, nil
}
