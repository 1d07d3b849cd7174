// Package server exposes the equivalence checker as an HTTP/JSON service
// — equivalence-as-a-service over the one request schema the facade and
// the CLI already speak (ccs.CheckRequest / ccs.Report, schema.go).
//
// Endpoints:
//
//	GET  /healthz     liveness probe, "ok"
//	POST /v1/check    one pair CheckRequest  -> one Report
//	POST /v1/network  one network CheckRequest -> one Report
//	POST /v1/batch    a request document (envelope, array, or single
//	                  object) -> a versioned ReportEnvelope
//	POST /v1/vet      one network CheckRequest -> a versioned VetEnvelope
//	                  of static-analysis findings (no check runs; network
//	                  reports also carry diagnostics inline)
//	GET  /v1/stats    ccs.ServerStats: query counters, admission state,
//	                  checker cache and artifact-store counters
//
// Requests must be self-contained: process sources are inline interchange
// text or "expr:" expressions, never file paths (the loader is nil). A
// syntactically malformed body, or a single request whose content is
// rejected (unknown relation, unparsable process, bad route), answers 400
// with the typed report error in the body; batch documents always answer
// 200 with per-request errors in-band, so one bad query cannot hide the
// other verdicts. Admission control bounds concurrently served requests;
// excess load answers 429 + Retry-After rather than queueing without
// bound. Per-query timeouts (request timeout_ms, capped by the server's
// MaxTimeout) turn into in-band "timeout" report errors, keeping the
// connection's answer well-formed.
//
// The Server holds one long-lived ccs.Checker, so the in-memory artifact
// cache warms across requests; with a store-backed Checker
// (ccs.NewStoreChecker) the warmth additionally survives restarts.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ccs"
	"ccs/internal/obs"
)

// Config configures a Server. The zero value of every field but Checker
// picks a sensible default.
type Config struct {
	// Checker answers the queries; required. Share one across the
	// process: its caches are the service's warmth.
	Checker *ccs.Checker
	// Workers bounds each batch request's worker pool (<= 0: GOMAXPROCS).
	Workers int
	// MaxInFlight bounds concurrently served check requests; further
	// requests answer 429. <= 0 selects 2*GOMAXPROCS.
	MaxInFlight int
	// MaxTimeout caps (and, when a request names none, sets) the
	// per-query timeout. 0 means no server-imposed bound.
	MaxTimeout time.Duration
	// MaxBodyBytes caps request body size. <= 0 selects 16 MiB.
	MaxBodyBytes int64
	// Version is the serving binary's build version, surfaced in
	// /healthz, /v1/stats and the ccs_build_info metric. Empty means
	// "dev".
	Version string
	// EnablePprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/. Off by default: profiles expose internals, so the
	// operator opts in (the CLI's -pprof flag).
	EnablePprof bool
	// AccessLog, when non-nil, receives one structured JSON line per
	// request (time, trace ID, method, path, route, status, duration).
	// Writes are serialized; any io.Writer works.
	AccessLog io.Writer
	// Registry is the metrics registry /metrics exposes; nil selects the
	// process-wide default, which is where the facade, engine and store
	// already report.
	Registry *obs.Registry
}

// Server is the HTTP face of a ccs.Checker. Construct with New; serve its
// Handler.
type Server struct {
	cfg      Config
	sem      chan struct{}
	queries  atomic.Int64
	failed   atomic.Int64
	rejected atomic.Int64

	reg          *obs.Registry
	httpSeconds  *obs.HistogramVec
	httpRequests *obs.CounterVec
	httpRejected *obs.Counter
	logMu        sync.Mutex
}

// New validates the config and returns a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Checker == nil {
		return nil, fmt.Errorf("server: config needs a Checker")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	if cfg.Version == "" {
		cfg.Version = "dev"
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	s := &Server{cfg: cfg, sem: make(chan struct{}, cfg.MaxInFlight), reg: cfg.Registry}
	s.httpSeconds = s.reg.HistogramVec("ccs_http_request_seconds",
		"Wall time per HTTP request, by route.", obs.DefBuckets(), "route")
	s.httpRequests = s.reg.CounterVec("ccs_http_requests_total",
		"HTTP requests served, by route and status code.", "route", "code")
	s.httpRejected = s.reg.Counter("ccs_http_rejected_total",
		"Requests turned away by admission control (429).")
	s.reg.GaugeVec("ccs_build_info",
		"Build metadata; the value is always 1, the version rides in the label.",
		"version").With(cfg.Version).Set(1)
	// GaugeFunc registration is first-wins on a shared registry: the
	// first server's checker feeds the gauge (one checker per process is
	// the intended shape; tests spinning up several keep the first).
	s.reg.GaugeFunc("ccs_checker_processes",
		"Structurally distinct processes the checker's artifact cache has seen.",
		func() float64 { return float64(cfg.Checker.Stats().Processes) })
	s.reg.GaugeFunc("ccs_http_in_flight",
		"Requests currently being answered.",
		func() float64 { return float64(len(s.sem)) })
	return s, nil
}

// Handler returns the route table, wrapped in the tracing/metrics/access-
// log middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok %s\n", s.cfg.Version)
	})
	mux.HandleFunc("POST /v1/check", s.handleSingle(false))
	mux.HandleFunc("POST /v1/network", s.handleSingle(true))
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/vet", s.handleVet)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.instrument(mux)
}

// admit reserves an admission slot, answering 429 when the server is at
// MaxInFlight. The returned release must be called iff ok.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
		s.rejected.Add(1)
		s.httpRejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{
			"error": fmt.Sprintf("server at capacity (%d in flight)", s.cfg.MaxInFlight),
		})
		return nil, false
	}
}

// clampTimeout applies the server's per-query timeout policy in place.
func (s *Server) clampTimeout(req *ccs.CheckRequest) {
	if s.cfg.MaxTimeout <= 0 {
		return
	}
	maxMS := s.cfg.MaxTimeout.Milliseconds()
	if maxMS == 0 {
		// A sub-millisecond cap still means "bounded", never "no bound".
		maxMS = 1
	}
	if req.TimeoutMS <= 0 || req.TimeoutMS > maxMS {
		req.TimeoutMS = maxMS
	}
}

// handleSingle answers /v1/check (pair) and /v1/network (network): one
// strict-JSON CheckRequest in, one Report out. Input-level rejections —
// including a pair request on the network endpoint and vice versa —
// answer 400 with the report (its typed error says why); completed
// queries answer 200 even when the report carries a check/timeout error.
func (s *Server) handleSingle(wantNetwork bool) http.HandlerFunc {
	endpoint := "/v1/check"
	if wantNetwork {
		endpoint = "/v1/network"
	}
	return func(w http.ResponseWriter, r *http.Request) {
		release, ok := s.admit(w)
		if !ok {
			return
		}
		defer release()
		body, err := s.readBody(w, r)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		var req ccs.CheckRequest
		if err := strictDecode(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if wantNetwork != (req.Network != nil) {
			rep := ccs.Report{Label: req.Label, Relation: req.Relation, Error: &ccs.ReportError{
				Kind:    ccs.ErrorKindInput,
				Message: fmt.Sprintf("%s wants a %s request", endpoint, map[bool]string{true: "network", false: "pair"}[wantNetwork]),
			}}
			s.count(rep)
			writeJSON(w, http.StatusBadRequest, rep)
			return
		}
		s.clampTimeout(&req)
		rep := s.cfg.Checker.Do(r.Context(), req, nil)
		s.count(rep)
		status := http.StatusOK
		if rep.Error != nil && rep.Error.Kind == ccs.ErrorKindInput {
			status = http.StatusBadRequest
		}
		writeJSON(w, status, rep)
	}
}

// handleBatch answers /v1/batch: a request document in any accepted JSON
// form, a versioned ReportEnvelope out, errors in-band per report.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	body, err := s.readBody(w, r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	reqs, err := ccs.DecodeRequests(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	for i := range reqs {
		s.clampTimeout(&reqs[i])
	}
	reps := s.cfg.Checker.DoAll(r.Context(), reqs, s.cfg.Workers, nil)
	for _, rep := range reps {
		s.count(rep)
	}
	writeJSON(w, http.StatusOK, ccs.ReportEnvelope{Schema: ccs.SchemaVersion, Reports: reps})
}

// handleVet answers /v1/vet: one network-shaped CheckRequest in (the spec
// and relation are optional — only the network matters), a versioned
// VetEnvelope of static-analysis findings out. Analysis runs without a
// checker, so vet queries don't enter the query/failed counters; admission
// still applies — the pass is cheap but not free. Malformed bodies,
// pair-shaped requests and unresolvable processes answer 400.
func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	body, err := s.readBody(w, r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	var req ccs.CheckRequest
	if err := strictDecode(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if req.Network == nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": "/v1/vet wants a network request",
		})
		return
	}
	diags, err := ccs.VetNetworkRequest(*req.Network, nil)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if diags == nil {
		diags = []ccs.Diagnostic{}
	}
	writeJSON(w, http.StatusOK, ccs.VetEnvelope{Schema: ccs.SchemaVersion, Vets: []ccs.VetReport{{
		Label:       req.Label,
		Network:     req.Network.Name,
		Diagnostics: diags,
	}}})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ccs.ServerStats {
	return ccs.ServerStats{
		Schema:      ccs.SchemaVersion,
		Version:     s.cfg.Version,
		Queries:     s.queries.Load(),
		Failed:      s.failed.Load(),
		Rejected:    s.rejected.Load(),
		InFlight:    len(s.sem),
		MaxInFlight: s.cfg.MaxInFlight,
		Workers:     ccs.PoolSize(s.cfg.Workers, 1<<30),
		Checker:     s.cfg.Checker.Stats(),
	}
}

func (s *Server) count(rep ccs.Report) {
	s.queries.Add(1)
	if rep.Error != nil {
		s.failed.Add(1)
	}
}

// readBody reads the request body, capped at MaxBodyBytes. A declared
// Content-Length within the cap sizes the buffer once; io.ReadAll would
// grow it from 512 bytes.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxBodyBytes {
		buf := make([]byte, n)
		if _, err := io.ReadFull(body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	return io.ReadAll(body)
}

// strictDecode unmarshals one JSON object rejecting unknown fields.
func strictDecode(data []byte, v any) error {
	reqs, err := ccs.DecodeRequests(data)
	if err != nil {
		return err
	}
	if len(reqs) != 1 {
		return fmt.Errorf("endpoint wants exactly one request, got %d", len(reqs))
	}
	*(v.(*ccs.CheckRequest)) = reqs[0]
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
