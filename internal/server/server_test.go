package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ccs"
	"ccs/internal/gen"
	"ccs/internal/obs"
)

// inline interchange fixtures. Processes travel inline in server requests
// (the loader is nil), so every fixture is full interchange text.
const (
	inlineTauA = "fsp p\nstates 2\nstart 0\narc 0 tau 1\narc 1 a 0\n"
	inlineA    = "fsp q\nstates 2\nstart 0\narc 0 a 1\narc 1 a 0\n"

	relayCell = "fsp cell\nstates 3\nstart 0\next 0 x\next 1 x\next 2 x\n" +
		"arc 0 in 1\narc 1 tau 2\narc 2 out' 0\n"
	counterTwo = "fsp counter\nstates 3\nstart 0\next 0 x\next 1 x\next 2 x\n" +
		"arc 0 c0 1\narc 1 c2' 0\narc 1 c0 2\narc 2 c2' 1\n"
)

// relayNet is the two-cell relay network used across the suite.
func relayNet(spec string) ccs.NetworkRequest {
	return ccs.NetworkRequest{
		Name: "relay2",
		Components: []ccs.NetworkComponentRef{
			{Process: relayCell, Relabel: map[string]string{"in": "c0", "out": "c1"}},
			{Process: relayCell, Relabel: map[string]string{"in": "c1", "out": "c2"}},
		},
		Hide: []string{"c1"},
		Spec: spec,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Checker == nil {
		cfg.Checker = ccs.NewChecker()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// post sends the request body and decodes the response into out (when
// non-nil), returning the status code.
func post(t *testing.T, url string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func postReq(t *testing.T, url string, req ccs.CheckRequest) (int, ccs.Report) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var rep ccs.Report
	status := post(t, url, body, &rep)
	return status, rep
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
}

// TestCheckAgreesWithFacade round-trips a verdict gallery through
// /v1/check and compares every answer with the direct facade call.
func TestCheckAgreesWithFacade(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	gallery := []struct {
		relation, p, q string
	}{
		{"weak", "expr:a+a", "expr:a"},
		{"strong", "expr:a+a", "expr:a"},
		{"strong", "expr:a(b+c)", "expr:ab+ac"},
		{"trace", "expr:a(b+c)", "expr:ab+ac"},
		{"simulation", "expr:a(b+c)", "expr:ab+ac"},
		{"congruence", inlineTauA, inlineA},
		{"weak", inlineTauA, inlineA},
		{"k2", "expr:a(b+c)", "expr:ab+ac"},
	}
	c := ccs.NewChecker()
	for _, g := range gallery {
		status, rep := postReq(t, ts.URL+"/v1/check", ccs.NewCheck(g.relation, g.p, g.q))
		if status != http.StatusOK || rep.Error != nil {
			t.Fatalf("%s %q %q: status %d, error %+v", g.relation, g.p, g.q, status, rep.Error)
		}
		want := c.Do(t.Context(), ccs.NewCheck(g.relation, g.p, g.q), nil)
		if want.Error != nil {
			t.Fatalf("facade failed: %+v", want.Error)
		}
		if rep.Equivalent != want.Equivalent {
			t.Errorf("%s %q %q: server %v, facade %v", g.relation, g.p, g.q, rep.Equivalent, want.Equivalent)
		}
		if rep.Route != ccs.RouteDirect {
			t.Errorf("pair route = %q, want %q", rep.Route, ccs.RouteDirect)
		}
	}
}

func TestNetworkEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, rep := postReq(t, ts.URL+"/v1/network", ccs.NewNetworkCheck("weak", relayNet(counterTwo)))
	if status != http.StatusOK || rep.Error != nil || !rep.Equivalent {
		t.Fatalf("relay vs counter: status %d, report %+v", status, rep)
	}
	if rep.Route == "" {
		t.Errorf("network report carries no route")
	}

	// The same network pinned to each route agrees.
	for _, route := range []string{"otf", ccs.RouteMTC} {
		status, rep := postReq(t, ts.URL+"/v1/network",
			ccs.NewNetworkCheck("weak", relayNet(counterTwo), ccs.WithRoute(route)))
		if status != http.StatusOK || rep.Error != nil || !rep.Equivalent {
			t.Fatalf("route %s: status %d, report %+v", route, status, rep)
		}
	}

	// Endpoint shape is enforced both ways: a pair request on /v1/network
	// and a network request on /v1/check answer 400 with a typed input
	// error.
	status, rep = postReq(t, ts.URL+"/v1/network", ccs.NewCheck("weak", "expr:a", "expr:a"))
	if status != http.StatusBadRequest || rep.Error == nil || rep.Error.Kind != ccs.ErrorKindInput {
		t.Errorf("pair on /v1/network: status %d, report %+v", status, rep)
	}
	status, rep = postReq(t, ts.URL+"/v1/check", ccs.NewNetworkCheck("weak", relayNet(counterTwo)))
	if status != http.StatusBadRequest || rep.Error == nil || rep.Error.Kind != ccs.ErrorKindInput {
		t.Errorf("network on /v1/check: status %d, report %+v", status, rep)
	}
}

func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"truncated JSON":   `{"relation":"weak"`,
		"unknown field":    `{"relatoin":"weak","p":"expr:a","q":"expr:a"}`,
		"two requests":     `[{"relation":"weak","p":"expr:a","q":"expr:a"},{"relation":"weak","p":"expr:a","q":"expr:a"}]`,
		"future schema":    `{"schema":99,"requests":[]}`,
		"not JSON at all":  `weak expr:a expr:a`,
		"wrong value type": `{"relation":42}`,
	} {
		if status := post(t, ts.URL+"/v1/check", []byte(body), nil); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}

	// Content-level rejections carry the typed report error.
	for name, req := range map[string]ccs.CheckRequest{
		"unknown relation": ccs.NewCheck("sideways", "expr:a", "expr:a"),
		"bad route":        ccs.NewCheck("weak", "expr:a", "expr:a", ccs.WithRoute("scenic")),
		"unparsable":       ccs.NewCheck("weak", "expr:((", "expr:a"),
		"external ref":     ccs.NewCheck("weak", "some/file.fsp", "expr:a"),
		"missing q":        {Relation: "weak", P: "expr:a"},
	} {
		status, rep := postReq(t, ts.URL+"/v1/check", req)
		if status != http.StatusBadRequest || rep.Error == nil || rep.Error.Kind != ccs.ErrorKindInput {
			t.Errorf("%s: status %d, report %+v", name, status, rep)
		}
	}
}

// TestStateCountAboveMax: a process declaring more than fsp.MaxStates
// states is an input error answered before any state is allocated.
func TestStateCountAboveMax(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, rep := postReq(t, ts.URL+"/v1/check", ccs.NewCheck("strong", "states 2000000000\narc 0 a 1\n", "expr:a"))
	if status != http.StatusBadRequest || rep.Error == nil || !strings.Contains(rep.Error.Message, "exceeds MaxStates") {
		t.Fatalf("status %d, report %+v", status, rep)
	}
}

// TestRequestBodies: a body is read whole whether or not it declares its
// length, and one over MaxBodyBytes answers 400 either way.
func TestRequestBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	body, err := json.Marshal(ccs.NewCheck("weak", inlineTauA, inlineA))
	if err != nil {
		t.Fatal(err)
	}
	big := append(bytes.Repeat([]byte(" "), 256), body...)
	for _, tc := range []struct {
		name    string
		body    []byte
		chunked bool
		want    int
	}{
		{"declared length", body, false, http.StatusOK},
		{"chunked", body, true, http.StatusOK},
		{"declared length over the cap", big, false, http.StatusBadRequest},
		{"chunked over the cap", big, true, http.StatusBadRequest},
	} {
		var r io.Reader = bytes.NewReader(tc.body)
		if tc.chunked {
			r = io.MultiReader(r) // hides the length: the client sends it chunked
		}
		resp, err := http.Post(ts.URL+"/v1/check", "application/json", r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reqs := []ccs.CheckRequest{
		ccs.NewCheck("weak", "expr:a+a", "expr:a", ccs.WithLabel("eq")),
		ccs.NewCheck("strong", "expr:a(b+c)", "expr:ab+ac", ccs.WithLabel("neq")),
		ccs.NewCheck("sideways", "expr:a", "expr:a", ccs.WithLabel("bad")),
		ccs.NewNetworkCheck("weak", relayNet(counterTwo), ccs.WithLabel("net")),
	}
	body, err := ccs.EncodeRequests(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var env ccs.ReportEnvelope
	// Batch answers 200 even though one request is bad: errors ride
	// in-band so one bad query cannot hide the other verdicts.
	if status := post(t, ts.URL+"/v1/batch", body, &env); status != http.StatusOK {
		t.Fatalf("batch status %d, want 200", status)
	}
	if env.Schema != ccs.SchemaVersion || len(env.Reports) != 4 {
		t.Fatalf("envelope: %+v", env)
	}
	if !env.Reports[0].Equivalent || env.Reports[0].Label != "eq" {
		t.Errorf("report 0: %+v", env.Reports[0])
	}
	if env.Reports[1].Equivalent || env.Reports[1].Error != nil {
		t.Errorf("report 1: %+v", env.Reports[1])
	}
	if env.Reports[2].Error == nil || env.Reports[2].Error.Kind != ccs.ErrorKindInput {
		t.Errorf("report 2: %+v", env.Reports[2])
	}
	if !env.Reports[3].Equivalent || env.Reports[3].Error != nil {
		t.Errorf("report 3: %+v", env.Reports[3])
	}
}

// TestTimeoutInBand: a query slower than the server's timeout cap
// answers 200 with the typed timeout error in the report, not a broken
// connection. The slow query is a failure pair whose subset walk has 2^20
// subset pairs to visit, so its cost is the walk itself, whichever way
// the processes are derived.
func TestTimeoutInBand(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTimeout: time.Millisecond})
	p, q := nthFromEndText(20, false), nthFromEndText(20, true)
	status, rep := postReq(t, ts.URL+"/v1/check", ccs.NewCheck("failure", p, q))
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if rep.Error == nil || rep.Error.Kind != ccs.ErrorKindTimeout {
		t.Fatalf("report %+v, want timeout error", rep)
	}

	// A request asking for more than the cap is clamped down to it.
	status, rep = postReq(t, ts.URL+"/v1/check",
		ccs.NewCheck("failure", q, p, ccs.WithTimeout(time.Hour)))
	if status != http.StatusOK || rep.Error == nil || rep.Error.Kind != ccs.ErrorKindTimeout {
		t.Fatalf("clamped request: status %d, report %+v", status, rep)
	}
}

// nthFromEndText is the restricted process "an a n symbols from the end"
// over {a, b} in interchange text: state 0 loops on both symbols and
// guesses the a, states 1..n count the symbols after it, so its subset
// construction reaches 2^n subsets. reversed numbers state i as n-i.
func nthFromEndText(n int, reversed bool) string {
	id := func(i int) int {
		if reversed {
			return n - i
		}
		return i
	}
	var b strings.Builder
	fmt.Fprintf(&b, "alphabet a b\nstates %d\nstart %d\n", n+1, id(0))
	fmt.Fprintf(&b, "arc %d a %d\narc %d b %d\narc %d a %d\n", id(0), id(0), id(0), id(0), id(0), id(1))
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "arc %d a %d\narc %d b %d\n", id(i), id(i+1), id(i), id(i+1))
	}
	for i := 0; i <= n; i++ {
		fmt.Fprintf(&b, "ext %d x\n", i)
	}
	return b.String()
}

// TestAdmissionControl: with the server at capacity further requests
// answer 429 + Retry-After instead of queueing.
func TestAdmissionControl(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1})
	srv.sem <- struct{}{} // occupy the only slot
	resp, err := http.Post(ts.URL+"/v1/check", "application/json",
		strings.NewReader(`{"relation":"weak","p":"expr:a","q":"expr:a"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After")
	}
	if got := srv.Stats().Rejected; got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	<-srv.sem // release; the server serves again
	if status, rep := postReq(t, ts.URL+"/v1/check", ccs.NewCheck("weak", "expr:a", "expr:a")); status != http.StatusOK || rep.Error != nil {
		t.Fatalf("after release: status %d, report %+v", status, rep)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 7, Workers: 3})
	postReq(t, ts.URL+"/v1/check", ccs.NewCheck("weak", "expr:a+a", "expr:a"))
	postReq(t, ts.URL+"/v1/check", ccs.NewCheck("sideways", "expr:a", "expr:a"))
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ccs.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Schema != ccs.SchemaVersion || st.Queries != 2 || st.Failed != 1 ||
		st.MaxInFlight != 7 || st.Workers != 3 || st.InFlight != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Checker.Processes == 0 {
		t.Errorf("checker stats missing: %+v", st.Checker)
	}
	if st.Checker.Store != nil {
		t.Errorf("memory-only checker reports a store: %+v", st.Checker.Store)
	}
}

// e20Stream is E20's request stream: weak and strong pairs over six
// tau-dense 700-state processes, whose ≈-quotients collapse hard, and
// the 9-stage relay against its counter, correct and lossy, on the mtc
// route, which quotients the composed product.
func e20Stream() []ccs.CheckRequest {
	rng := rand.New(rand.NewSource(1))
	procs := make([]string, 6)
	for i := range procs {
		procs[i] = ccs.FormatProcess(gen.Random(rng, 700, 2100, 4, 0.7))
	}
	var reqs []ccs.CheckRequest
	for i := 0; i+1 < len(procs); i++ {
		reqs = append(reqs,
			ccs.NewCheck("weak", procs[i], procs[i+1], ccs.WithLabel(fmt.Sprintf("weak-%d", i))),
			ccs.NewCheck("strong", procs[i], procs[i+1], ccs.WithLabel(fmt.Sprintf("strong-%d", i))))
	}
	relay := func(lossy bool, label string) ccs.CheckRequest {
		const n = 9
		comps := make([]ccs.NetworkComponentRef, n)
		for i := range comps {
			cell := gen.BufferCell(3)
			if lossy && i == n/2 {
				cell = gen.LossyCell(3)
			}
			comps[i] = ccs.NetworkComponentRef{Process: ccs.FormatProcess(cell), Relabel: map[string]string{
				"in": fmt.Sprintf("c%d", i), "out": fmt.Sprintf("c%d", i+1),
			}}
		}
		nr := ccs.NetworkRequest{Name: label, Components: comps, Spec: ccs.FormatProcess(gen.CounterSpec(n))}
		for i := 1; i < n; i++ {
			nr.Hide = append(nr.Hide, fmt.Sprintf("c%d", i))
		}
		return ccs.NewNetworkCheck("weak", nr, ccs.WithRoute(ccs.RouteMTC), ccs.WithLabel(label))
	}
	return append(reqs, relay(false, "relay-ok"), relay(true, "relay-lossy"))
}

// derivations counts, process-wide, the quotients derived fresh of the
// kinds the store keeps and the ≈-partitions derived on any path.
func derivations() (quotients, partitions int64) {
	q := obs.Default().CounterVec("ccs_engine_artifacts_derived_total", "", "kind")
	for _, kind := range []string{"strong", "weak", "cong"} {
		quotients += q.With(kind).Value()
	}
	p := obs.Default().CounterVec("ccs_core_weak_partitions_total", "", "by")
	for _, by := range []string{"rounds", "strong", "saturation"} {
		partitions += p.With(by).Value()
	}
	return quotients, partitions
}

// TestWarmRestartHitsStore is E20: a store-backed server answers E20's
// request stream, and a server restarted on the same directory answers it
// again from the store alone. The verdicts agree across the restart. The
// cold server derives 17 quotients and writes each. The warm one derives
// no quotient and no ≈-partition, misses nothing, writes nothing, and
// hits the store once per quotient the cold one wrote.
func TestWarmRestartHitsStore(t *testing.T) {
	const quotients = 17
	dir := t.TempDir()
	body, err := ccs.EncodeRequests(e20Stream())
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string) ([]ccs.Report, ccs.StoreStats, int64, int64) {
		c, err := ccs.NewStoreChecker(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServer(t, Config{Checker: c})
		q0, p0 := derivations()
		var env ccs.ReportEnvelope
		if status := post(t, ts.URL+"/v1/batch", body, &env); status != http.StatusOK {
			t.Fatalf("%s batch: status %d", name, status)
		}
		q1, p1 := derivations()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st ccs.ServerStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Checker.Store == nil {
			t.Fatalf("%s server reports no store", name)
		}
		return env.Reports, *st.Checker.Store, q1 - q0, p1 - p0
	}
	cold, coldStore, coldQuotients, _ := run("cold")
	// "Restart": a fresh checker on the same directory.
	warm, warmStore, warmQuotients, warmPartitions := run("warm")

	for i, c := range cold {
		w := warm[i]
		if c.Error != nil || w.Error != nil {
			t.Fatalf("%s: cold error %+v, warm error %+v", c.Label, c.Error, w.Error)
		}
		if c.Equivalent != w.Equivalent {
			t.Errorf("%s: verdict %v cold, %v warm", c.Label, c.Equivalent, w.Equivalent)
		}
		if want, ok := map[string]bool{"relay-ok": true, "relay-lossy": false}[c.Label]; ok && c.Equivalent != want {
			t.Errorf("%s: ≈ counter = %v, want %v", c.Label, c.Equivalent, want)
		}
	}
	if coldQuotients != quotients || coldStore.Writes != quotients {
		t.Errorf("cold server derived %d quotients and wrote %d, want %d each", coldQuotients, coldStore.Writes, quotients)
	}
	if warmQuotients != 0 || warmPartitions != 0 {
		t.Errorf("warm server derived %d quotients and %d ≈-partitions, want none", warmQuotients, warmPartitions)
	}
	if warmStore.Hits != quotients || warmStore.Misses != 0 || warmStore.Writes != 0 {
		t.Errorf("warm store %+v, want %d hits, no misses, no writes", warmStore, quotients)
	}
}

// TestConcurrentRequests hammers every endpoint from many goroutines;
// its value is under -race.
func TestConcurrentRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 64})
	batch, err := ccs.EncodeRequests([]ccs.CheckRequest{
		ccs.NewCheck("weak", "expr:a+a", "expr:a"),
		ccs.NewNetworkCheck("weak", relayNet(counterTwo)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				switch (g + i) % 3 {
				case 0:
					resp, err := http.Post(ts.URL+"/v1/check", "application/json",
						strings.NewReader(`{"relation":"strong","p":"expr:a(b+c)","q":"expr:ab+ac"}`))
					if err == nil {
						resp.Body.Close()
					}
				case 1:
					resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(batch))
					if err == nil {
						resp.Body.Close()
					}
				default:
					resp, err := http.Get(ts.URL + "/v1/stats")
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	status, rep := postReq(t, ts.URL+"/v1/check", ccs.NewCheck("weak", "expr:a", "expr:a"))
	if status != http.StatusOK || rep.Error != nil || !rep.Equivalent {
		t.Fatalf("after hammering: status %d, report %+v", status, rep)
	}
}
