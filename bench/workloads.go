package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ccs"
	"ccs/internal/server"
)

// workload is one traffic mix. pool builds its requests from a seeded
// source (scale < 1 shrinks it for the unit test); start constructs the
// system under test and warms it.
type workload struct {
	name    string
	clients int
	pool    func(rng *rand.Rand, scale float64) []item
	start   func(w *workload, pool []item, dir string) (target, error)
}

// target answers one request of the stream. Long-lived targets hold one
// checker; the cold ones build a checker per request, as a CLI process
// would.
type target interface {
	do(ctx context.Context, it *item, traced bool) outcome
	close() error
}

// outcome is what a client learns from one request.
type outcome struct {
	rep ccs.Report
	// err is a transport error, a non-200 status or an undecodable body;
	// a Report.Error is in rep.
	err error
	// processes is the answering checker's distinct-process count; store
	// is its store's counters (nil without a store).
	processes int
	store     *ccs.StoreStats
}

// scaled returns max(lo, round(n*scale)).
func scaled(n int, scale float64, lo int) int {
	k := int(float64(n)*scale + 0.5)
	if k < lo {
		return lo
	}
	return k
}

var workloads = []*workload{
	{
		// Derivation-bound: every query quotients and saturates both
		// processes from scratch, and the engine cache never hits.
		name:    "pair-cold",
		clients: 2,
		pool: func(rng *rand.Rand, scale float64) []item {
			return shuffled(rng, pairPool(rng, scaled(600, scale, 10), 2))
		},
		start: func(w *workload, pool []item, dir string) (target, error) {
			t := coldTarget{}
			return t, warm(t, stratified(pool, 24))
		},
	},
	{
		// Cache-bound: a long-lived server answers from cached quotients,
		// so parse, fingerprint lookup, the final solve and HTTP/JSON are
		// the cost.
		name:    "pair-warm-http",
		clients: 2,
		pool: func(rng *rand.Rand, scale float64) []item {
			return shuffled(rng, append(pairPool(rng, scaled(64, scale, 6), 2), galleryPairs()...))
		},
		start: func(w *workload, pool []item, dir string) (target, error) {
			t, err := startHTTP(w.clients)
			if err != nil {
				return nil, err
			}
			return t, warm(t, pool)
		},
	},
	{
		// Game-bound: the on-the-fly product exploration is the cost on
		// the relays; the protocol entries are small enough that parse
		// and vet show.
		name:    "network-otf",
		clients: 1,
		pool: func(rng *rand.Rand, scale float64) []item {
			cat := otfCatalogue(rng)
			if scale < 1 {
				cat = cat[len(cat)-scaled(len(cat), scale, 4):]
			}
			return shuffled(rng, networkPool(rng, cat, ccs.RouteAuto))
		},
		start: func(w *workload, pool []item, dir string) (target, error) {
			t := checkerTarget{c: ccs.NewChecker()}
			return t, warm(t, pool)
		},
	},
	{
		// Compose- and store-bound: a fresh store-backed checker per
		// request, on a directory that starts empty, so each network's
		// first request derives and writes and its repeats read.
		name:    "network-mtc-store",
		clients: 1,
		pool: func(rng *rand.Rand, scale float64) []item {
			cat := mtcCatalogue(rng)
			if scale < 1 {
				cat = cat[len(cat)-scaled(len(cat), scale, 4):]
			}
			return shuffled(rng, networkPool(rng, cat, ccs.RouteMTC))
		},
		start: func(w *workload, pool []item, dir string) (target, error) {
			// The warm-up fills a directory of its own; the measured
			// stream starts on an empty one.
			if err := warm(storeTarget{dir: filepath.Join(dir, "warmup")}, pool); err != nil {
				return nil, err
			}
			return storeTarget{dir: filepath.Join(dir, "store")}, nil
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stratified returns k requests spread evenly over the pool ordered by
// relation and size, so a warm-up's cost mix is the same for every seed.
func stratified(pool []item, k int) []item {
	s := append([]item(nil), pool...)
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i].req, s[j].req
		if a.Relation != b.Relation {
			return a.Relation < b.Relation
		}
		if len(a.P) != len(b.P) {
			return len(a.P) < len(b.P)
		}
		return len(a.Q) < len(b.Q)
	})
	out := make([]item, 0, k)
	for i := 0; i < k && i < len(s); i++ {
		out = append(out, s[i*len(s)/k])
	}
	return out
}

// warm answers every request once and checks the verdicts.
func warm(t target, pool []item) error {
	for i := range pool {
		if err := verify(&pool[i], t.do(context.Background(), &pool[i], false)); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// verify returns an error when the outcome failed or got the verdict
// wrong; a *wrongVerdict marks the latter.
func verify(it *item, o outcome) error {
	switch {
	case o.err != nil:
		return fmt.Errorf("%s: %w", it.req.Label, o.err)
	case o.rep.Error != nil:
		return fmt.Errorf("%s: %s error: %s", it.req.Label, o.rep.Error.Kind, o.rep.Error.Message)
	case o.rep.Equivalent != it.want:
		return &wrongVerdict{label: it.req.Label, want: it.want}
	}
	return nil
}

type wrongVerdict struct {
	label string
	want  bool
}

func (e *wrongVerdict) Error() string {
	return fmt.Sprintf("%s: verdict %v, want %v", e.label, !e.want, e.want)
}

func withTrace(req ccs.CheckRequest, traced bool) ccs.CheckRequest {
	req.Trace = traced
	return req
}

// coldTarget builds a fresh checker for every request, like `ccs check`.
type coldTarget struct{}

func (coldTarget) do(ctx context.Context, it *item, traced bool) outcome {
	c := ccs.NewChecker()
	rep := c.Do(ctx, withTrace(it.req, traced), nil)
	return outcome{rep: rep, processes: c.Stats().Processes}
}
func (coldTarget) close() error { return nil }

// checkerTarget answers from one long-lived checker.
type checkerTarget struct{ c *ccs.Checker }

func (t checkerTarget) do(ctx context.Context, it *item, traced bool) outcome {
	rep := t.c.Do(ctx, withTrace(it.req, traced), nil)
	return outcome{rep: rep, processes: t.c.Stats().Processes}
}
func (checkerTarget) close() error { return nil }

// storeTarget opens a store-backed checker on dir for every request, like
// `ccs network -cache-dir`.
type storeTarget struct{ dir string }

func (t storeTarget) do(ctx context.Context, it *item, traced bool) outcome {
	c, err := ccs.NewStoreChecker(t.dir, 0)
	if err != nil {
		return outcome{err: err}
	}
	rep := c.Do(ctx, withTrace(it.req, traced), nil)
	st := c.Stats()
	return outcome{rep: rep, processes: st.Processes, store: st.Store}
}
func (storeTarget) close() error { return nil }

// httpTarget is `ccs serve` on a loopback listener with keep-alive
// clients.
type httpTarget struct {
	checker *ccs.Checker
	srv     *http.Server
	done    chan error
	url     string
	client  *http.Client
}

func startHTTP(conns int) (*httpTarget, error) {
	checker := ccs.NewChecker()
	s, err := server.New(server.Config{Checker: checker})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &httpTarget{
		checker: checker,
		srv:     &http.Server{Handler: s.Handler()},
		done:    make(chan error, 1),
		url:     "http://" + ln.Addr().String() + "/v1/check",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { t.done <- t.srv.Serve(ln) }()
	return t, nil
}

func (t *httpTarget) do(ctx context.Context, it *item, traced bool) outcome {
	body := it.body[0]
	if traced {
		body = it.body[1]
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url, bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcome{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return outcome{err: fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))}
	}
	o := outcome{processes: t.checker.Stats().Processes}
	if err := json.Unmarshal(data, &o.rep); err != nil {
		o.err = fmt.Errorf("decoding report: %w", err)
	}
	return o
}

// close stops the server and waits for its serve loop to return.
func (t *httpTarget) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	t.client.CloseIdleConnections()
	if serr := <-t.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// encodeBodies pre-encodes each request's untraced and traced JSON body,
// so clients spend no measured time on it.
func encodeBodies(pool []item) error {
	for i := range pool {
		for k, traced := range []bool{false, true} {
			b, err := json.Marshal(withTrace(pool[i].req, traced))
			if err != nil {
				return err
			}
			pool[i].body[k] = b
		}
	}
	return nil
}

// freshDir creates dir empty.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
