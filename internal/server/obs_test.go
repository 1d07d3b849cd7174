package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"ccs"
)

// safeBuf is a goroutine-safe write buffer for the access log.
type safeBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *safeBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestMetricsAndAccessLogUnderLoad drives concurrent traced queries (run
// it with -race), then checks three invariants: every response carries an
// X-CCS-Trace header that matches its report's trace ID, the access log
// records exactly those IDs, and the key metric series all surface on
// /metrics with nonzero counts.
func TestMetricsAndAccessLogUnderLoad(t *testing.T) {
	logBuf := &safeBuf{}
	_, ts := newTestServer(t, Config{AccessLog: logBuf, MaxInFlight: 64})

	const clients = 8
	var (
		mu  sync.Mutex
		ids []string
	)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(net bool) {
			defer wg.Done()
			req := ccs.NewCheck("weak", "expr:a+a", "expr:a", ccs.WithTrace())
			url := ts.URL + "/v1/check"
			if net {
				req = ccs.NewNetworkCheck("weak", relayNet(relayCell), ccs.WithTrace())
				url = ts.URL + "/v1/network"
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var rep ccs.Report
			if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
				t.Error(err)
				return
			}
			header := resp.Header.Get("X-CCS-Trace")
			if header == "" {
				t.Error("response missing X-CCS-Trace")
				return
			}
			if rep.Error != nil {
				t.Errorf("query failed: %v", rep.Error)
				return
			}
			if rep.Trace == nil || rep.Trace.ID != header {
				t.Errorf("report trace ID %v does not match header %q", rep.Trace, header)
				return
			}
			mu.Lock()
			ids = append(ids, header)
			mu.Unlock()
		}(i%2 == 0)
	}
	wg.Wait()

	// Every response header ID appears in the access log with the route
	// and a 200 status.
	logged := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(logBuf.String()))
	for sc.Scan() {
		var line struct {
			Trace  string `json:"trace"`
			Route  string `json:"route"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("malformed access log line %q: %v", sc.Text(), err)
		}
		if line.Status != http.StatusOK {
			t.Fatalf("logged status %d: %s", line.Status, sc.Text())
		}
		logged[line.Trace] = line.Route
	}
	for _, id := range ids {
		if route := logged[id]; route != "/v1/check" && route != "/v1/network" {
			t.Fatalf("trace %s not logged with a check route (got %q)", id, route)
		}
	}

	status, metrics, hdr := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics = %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	// Key series: per-route HTTP counters and histograms, the facade's
	// query counters, the engine's artifact and pair-decision counters
	// (a+a ≈ a is settled by an isomorphism check) and the on-the-fly
	// totals (the relay network decides on the fly). Counts are "at
	// least" — the registry is process-wide and other tests add to it.
	for _, want := range []string{
		`ccs_http_requests_total{route="/v1/check",code="200"}`,
		`ccs_http_requests_total{route="/v1/network",code="200"}`,
		`ccs_http_request_seconds_bucket{route="/v1/check",le="+Inf"}`,
		`ccs_queries_total{route="direct"}`,
		`ccs_query_seconds_count`,
		`ccs_otf_pairs_total`,
		`ccs_engine_artifact_requests_total{kind="weak"}`,
		`ccs_engine_pair_decisions_total{by="isomorphism"}`,
		`ccs_build_info{version="dev"} 1`,
		"ccs_http_in_flight",
		"ccs_checker_processes",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q; got:\n%s", want, metrics)
		}
	}
}

// TestVersionSurfaces pins the three places a stamped version shows up:
// /healthz, /v1/stats and ccs_build_info.
func TestVersionSurfaces(t *testing.T) {
	_, ts := newTestServer(t, Config{Version: "v9.9-test"})

	if _, body, _ := get(t, ts.URL+"/healthz"); !strings.Contains(body, "v9.9-test") {
		t.Fatalf("healthz body %q lacks version", body)
	}
	_, body, _ := get(t, ts.URL+"/v1/stats")
	var stats ccs.ServerStats
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Version != "v9.9-test" {
		t.Fatalf("stats version %q", stats.Version)
	}
	if _, metrics, _ := get(t, ts.URL+"/metrics"); !strings.Contains(metrics, `ccs_build_info{version="v9.9-test"} 1`) {
		t.Fatalf("build info series missing:\n%s", metrics)
	}
}

// TestPprofGated: profiling endpoints exist only behind EnablePprof.
func TestPprofGated(t *testing.T) {
	_, off := newTestServer(t, Config{})
	if status, _, _ := get(t, off.URL+"/debug/pprof/"); status != http.StatusNotFound {
		t.Fatalf("pprof reachable without the flag: %d", status)
	}
	_, on := newTestServer(t, Config{EnablePprof: true})
	if status, body, _ := get(t, on.URL+"/debug/pprof/"); status != http.StatusOK || !strings.Contains(body, "pprof") {
		t.Fatalf("pprof index = %d", status)
	}
}
