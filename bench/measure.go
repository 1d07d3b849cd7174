package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ccs"
	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/obs"
	"ccs/internal/partition"
	"ccs/internal/store"
)

// metricDef names one printed metric and its unit. The two tables below
// are the benchmark's output format; BENCHMARK.json repeats them.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"cpu_ms_per_query", "ms"},
	{"allocs_per_query", "count"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
}

// spanMetric maps the phase names production spans carry onto metrics.
var spanMetric = map[string]string{
	"parse":       "ccs.parse_ms",
	"vet":         "vet.vet_ms",
	"quotient":    "engine.quotient_ms",
	"saturate":    "fsp.saturate_ms",
	"solve":       "core.solve_ms",
	"compose":     "compose.compose_ms",
	"otf-explore": "otf.explore_ms",
}

var perLayer = []metricDef{
	// Self time per traced query, from Report.Trace (spans are flat).
	{"ccs.parse_ms", "ms"},
	{"vet.vet_ms", "ms"},
	{"engine.quotient_ms", "ms"},
	{"fsp.saturate_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"otf.explore_ms", "ms"},
	{"compose.compose_ms", "ms"},
	{"ccs.unspanned_ms", "ms"},
	{"server.overhead_ms", "ms"},
	// Direct timing of layer functions on the workload's own inputs.
	{"fsp.closure_ms", "ms"},
	{"lts.index_ms", "ms"},
	{"partition.refine_ms", "ms"},
	{"fsp.parse_us", "us"},
	{"fsp.fingerprint_us", "us"},
	{"ccs.decode_us", "us"},
	{"ccs.encode_us", "us"},
	{"store.open_ms", "ms"},
	{"store.get_us", "us"},
	// Exact counts.
	{"otf.pairs", "count"},
	{"otf.explored", "count"},
	{"otf.spec_subsets", "count"},
	{"otf.pairs_per_ms", "1/ms"},
	{"otf.steals", "count"},
	{"otf.utilization", "ratio"},
	{"engine.route_share_otf", "ratio"},
	{"engine.route_share_determinized", "ratio"},
	{"engine.route_share_fallback", "ratio"},
	{"engine.artifact_hit_ratio", "ratio"},
	{"engine.processes", "count"},
	{"compose.product_states", "count"},
	{"store.hit_ratio", "ratio"},
	{"store.writes", "count"},
	{"store.bytes", "bytes"},
	{"runtime.gc_cycles_per_query", "count"},
	{"runtime.gc_pause_ms_per_query", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"obs.trace_overhead", "ratio"},
}

// traceBlock is how long the traced run stays traced or untraced before
// switching, so both halves see the same host conditions.
const traceBlock = 250 * time.Millisecond

// window is the length of the slices the measured phase is cut into. The
// timing metrics are medians over the windows, so a slow spell of the host
// that spans a few of them does not move them.
const window = 2 * time.Second

// numWindows is how many windows a measured phase of d holds; the last one
// runs on until the final request completes.
func numWindows(d time.Duration) int { return max(1, int(d/window)) }

// winStats is one window of the measured phase.
type winStats struct {
	lat  []float64 // untraced latencies of the requests completed in it
	done int       // requests completed in it, failed ones included
}

// acc accumulates one client's measurements.
type acc struct {
	lat, latTraced []float64
	wins           []winStats
	failed, wrong  int
	errs           []string

	traced                              int
	span                                map[string]float64
	unspanned, overhead                 float64
	procSum                             int
	networks                            int
	routes                              map[string]int
	otfN, pairs, explored, subsets      int
	steals                              int
	util                                float64
	composeN                            int
	productStates                       float64
	storeHits, storeMisses, storeWrites int64
	storeBytes                          int64
}

func newAcc(windows int) *acc {
	return &acc{wins: make([]winStats, windows), span: map[string]float64{}, routes: map[string]int{}}
}

// record folds one finished request, completed in window win, into the
// accumulator.
func (a *acc) record(it *item, o outcome, ms float64, win int, traced bool) {
	a.wins[win].done++
	if o.store != nil {
		a.storeWrites += o.store.Writes
		a.storeBytes = o.store.Bytes
	}
	if err := verify(it, o); err != nil {
		if _, ok := err.(*wrongVerdict); ok {
			a.wrong++
		} else {
			a.failed++
		}
		if len(a.errs) < 3 {
			a.errs = append(a.errs, err.Error())
		}
		return
	}
	if !traced {
		a.lat = append(a.lat, ms)
		a.wins[win].lat = append(a.wins[win].lat, ms)
		return
	}
	a.latTraced = append(a.latTraced, ms)
	a.traced++
	rep := &o.rep
	spanned := 0.0
	if rep.Trace != nil {
		for _, sp := range rep.Trace.Spans {
			a.span[sp.Phase] += sp.DurationMS
			spanned += sp.DurationMS
			if sp.Phase == "compose" {
				if n, err := strconv.ParseFloat(sp.Attrs["product-states"], 64); err == nil {
					a.composeN++
					a.productStates += n
				}
			}
		}
	}
	a.unspanned += rep.ElapsedMS - spanned
	a.overhead += ms - rep.ElapsedMS
	a.procSum += o.processes
	if it.req.Network != nil {
		a.networks++
		a.routes[rep.Route]++
	}
	if s := rep.OTF; s != nil {
		a.otfN++
		a.pairs += s.Pairs
		a.explored += s.Explored
		a.subsets += s.SpecSubsets
		a.steals += s.Steals
		a.util += s.Utilization
	}
	if o.store != nil {
		a.storeHits += o.store.Hits
		a.storeMisses += o.store.Misses
	}
}

func (a *acc) merge(b *acc) {
	a.lat = append(a.lat, b.lat...)
	a.latTraced = append(a.latTraced, b.latTraced...)
	for k := range a.wins {
		a.wins[k].lat = append(a.wins[k].lat, b.wins[k].lat...)
		a.wins[k].done += b.wins[k].done
	}
	a.failed += b.failed
	a.wrong += b.wrong
	a.errs = append(a.errs, b.errs...)
	a.traced += b.traced
	for k, v := range b.span {
		a.span[k] += v
	}
	a.unspanned += b.unspanned
	a.overhead += b.overhead
	a.procSum += b.procSum
	a.networks += b.networks
	for k, v := range b.routes {
		a.routes[k] += v
	}
	a.otfN += b.otfN
	a.pairs += b.pairs
	a.explored += b.explored
	a.subsets += b.subsets
	a.steals += b.steals
	a.util += b.util
	a.composeN += b.composeN
	a.productStates += b.productStates
	a.storeHits += b.storeHits
	a.storeMisses += b.storeMisses
	a.storeWrites += b.storeWrites
	if b.storeBytes > a.storeBytes {
		a.storeBytes = b.storeBytes
	}
}

// runStats is one measured phase.
type runStats struct {
	*acc
	attempted  int
	wall       time.Duration
	cpu        time.Duration
	winSecs    []float64       // each window's length
	winCPU     []time.Duration // the process CPU time spent in each window
	mallocs    uint64
	gcCycles   uint32
	gcPause    time.Duration
	heapPeak   uint64
	artReq     int64
	artDerived int64
	firstReps  []ccs.Report // the first cycle's reports, by pool index
}

// artifactKinds are the engine's artifact cache kinds (internal/engine).
var artifactKinds = []string{"closure", "index", "saturated", "strong", "weak", "cong"}

// artifactCounters sums the engine's artifact request and derivation
// counters over every kind.
func artifactCounters() (req, derived int64) {
	r := obs.Default()
	reqs := r.CounterVec("ccs_engine_artifact_requests_total", "", "kind")
	ders := r.CounterVec("ccs_engine_artifacts_derived_total", "", "kind")
	for _, k := range artifactKinds {
		req += reqs.With(k).Value()
		derived += ders.With(k).Value()
	}
	return req, derived
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapSampler records the peak live-heap size until stopped.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak.Load()
}

// measure drives the closed loop: clients goroutines each send the next
// request of the cyclic stream as soon as their previous one returns,
// until d has passed. With traceMode the run alternates untraced and
// traced blocks of traceBlock.
func measure(t target, pool []item, clients int, d time.Duration, traceMode bool) *runStats {
	ctx := context.Background()
	nw := numWindows(d)
	rs := &runStats{acc: newAcc(nw), firstReps: make([]ccs.Report, len(pool))}
	var ms0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	req0, der0 := artifactCounters()
	cpu0 := cpuTime()
	heap := startHeapSampler()

	var next atomic.Int64
	accs := make([]*acc, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	// cpuAt[k] is the CPU time at the start of window k. Every sampled
	// boundary lies before the deadline, so the sampler is done by the time
	// the clients are.
	cpuAt := make([]time.Duration, nw+1)
	cpuAt[0] = cpu0
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k < nw; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * window)))
			cpuAt[k] = cpuTime()
		}
	}()
	for c := range accs {
		accs[c] = newAcc(nw)
		wg.Add(1)
		go func(a *acc) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				it := &pool[i%len(pool)]
				traced := traceMode && (time.Since(start)/traceBlock)%2 == 1
				t0 := time.Now()
				o := t.do(ctx, it, traced)
				done := time.Now()
				ms := float64(done.Sub(t0)) / float64(time.Millisecond)
				if i < len(pool) {
					rs.firstReps[i] = o.rep
				}
				a.record(it, o, ms, min(int(done.Sub(start)/window), nw-1), traced)
			}
		}(accs[c])
	}
	wg.Wait()
	<-sampled
	rs.wall = time.Since(start)
	cpuAt[nw] = cpuTime()
	rs.cpu = cpuAt[nw] - cpu0
	for k := 0; k < nw; k++ {
		rs.winSecs = append(rs.winSecs, window.Seconds())
		rs.winCPU = append(rs.winCPU, cpuAt[k+1]-cpuAt[k])
	}
	rs.winSecs[nw-1] = (rs.wall - time.Duration(nw-1)*window).Seconds()
	rs.heapPeak = heap.finish()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	req1, der1 := artifactCounters()
	for _, a := range accs {
		rs.merge(a)
	}
	rs.attempted = int(next.Load())
	rs.mallocs = ms1.Mallocs - ms0.Mallocs
	rs.gcCycles = ms1.NumGC - ms0.NumGC
	rs.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	rs.artReq, rs.artDerived = req1-req0, der1-der0
	return rs
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// div is a/b, or 0 when b is 0 (a layer the workload never reaches).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics reads the untraced run. The timings are medians over
// the windows in which requests completed; allocations are counted over
// the whole phase.
func endToEndMetrics(rs *runStats, setup []float64) map[string]float64 {
	var p50, p99, qps, cpu []float64
	for k, w := range rs.wins {
		if w.done == 0 {
			continue
		}
		qps = append(qps, float64(w.done)/rs.winSecs[k])
		cpu = append(cpu, float64(rs.winCPU[k])/float64(time.Millisecond)/float64(w.done))
		if len(w.lat) > 0 {
			p50 = append(p50, quantile(w.lat, 0.50))
			p99 = append(p99, quantile(w.lat, 0.99))
		}
	}
	return map[string]float64{
		"latency_p50_ms":   median(p50),
		"latency_p99_ms":   median(p99),
		"throughput_qps":   median(qps),
		"cpu_ms_per_query": median(cpu),
		"allocs_per_query": float64(rs.mallocs) / float64(rs.attempted),
		"max_rss_mb":       maxRSSMB(),
		"setup_s":          median(setup),
	}
}

// perLayerMetrics reads the traced run plus the direct layer timings.
func perLayerMetrics(rs *runStats, direct map[string]float64) map[string]float64 {
	n, tr := float64(rs.attempted), float64(rs.traced)
	m := map[string]float64{}
	for phase, name := range spanMetric {
		m[name] = div(rs.span[phase], tr)
	}
	m["ccs.unspanned_ms"] = div(rs.unspanned, tr)
	m["server.overhead_ms"] = div(rs.overhead, tr)
	for k, v := range direct {
		m[k] = v
	}
	otfN := float64(rs.otfN)
	m["otf.pairs"] = div(float64(rs.pairs), otfN)
	m["otf.explored"] = div(float64(rs.explored), otfN)
	m["otf.spec_subsets"] = div(float64(rs.subsets), otfN)
	m["otf.pairs_per_ms"] = div(float64(rs.pairs), rs.span["otf-explore"])
	m["otf.steals"] = div(float64(rs.steals), otfN)
	m["otf.utilization"] = div(rs.util, otfN)
	nets := float64(rs.networks)
	m["engine.route_share_otf"] = div(float64(rs.routes[ccs.RouteOTF]), nets)
	m["engine.route_share_determinized"] = div(float64(rs.routes[ccs.RouteOTFDeterminized]), nets)
	m["engine.route_share_fallback"] = div(float64(rs.routes[ccs.RouteMTCFallback]), nets)
	m["engine.artifact_hit_ratio"] = div(float64(rs.artReq-rs.artDerived), float64(rs.artReq))
	m["engine.processes"] = div(float64(rs.procSum), tr)
	m["compose.product_states"] = div(rs.productStates, float64(rs.composeN))
	m["store.hit_ratio"] = div(float64(rs.storeHits), float64(rs.storeHits+rs.storeMisses))
	m["store.writes"] = float64(rs.storeWrites)
	m["store.bytes"] = float64(rs.storeBytes)
	m["runtime.gc_cycles_per_query"] = float64(rs.gcCycles) / n
	m["runtime.gc_pause_ms_per_query"] = float64(rs.gcPause) / float64(time.Millisecond) / n
	m["runtime.heap_peak_mb"] = float64(rs.heapPeak) / (1 << 20)
	m["obs.trace_overhead"] = div(median(rs.latTraced), median(rs.lat))
	return m
}

// maxDirect bounds how many distinct inputs the direct layer timings
// visit, which keeps them near a second on every workload.
const maxDirect = 48

// timeOp returns the median wall time of reps calls of f.
func timeOp(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// sources lists the distinct process texts of the pool in stream order.
func sources(pool []item) []string {
	seen := map[string]bool{}
	var out []string
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, it := range pool {
		if nr := it.req.Network; nr != nil {
			for _, c := range nr.Components {
				add(c.Process)
			}
			add(nr.Spec)
		} else {
			add(it.req.P)
			add(it.req.Q)
		}
	}
	return out
}

// directTimings times the public functions of layers that emit no span,
// on the workload's own inputs: per process, the parse, fingerprint,
// tau-closure, refinement index and Paige–Tarjan solve; per request, the
// JSON decode and (of its report) encode; with a store, its open and
// reads of the entries the run wrote.
func directTimings(pool []item, reps []ccs.Report, storeDir string) (map[string]float64, error) {
	const r = 3
	var parse, fp, clo, idx, refine, dec, enc, open, get []float64
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	msf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var procs []*fsp.FSP
	srcs := sources(pool)
	for _, src := range srcs[:min(len(srcs), maxDirect)] {
		var p *fsp.FSP
		var err error
		parse = append(parse, us(timeOp(r, func() { p, err = fsp.ParseString(src) })))
		if err != nil {
			return nil, fmt.Errorf("parse: %w", err)
		}
		procs = append(procs, p)
		fp = append(fp, us(timeOp(r, func() { fsp.Fingerprint(p) })))
		clo = append(clo, msf(timeOp(r, func() { fsp.TauClosure(p) })))
		var x = core.IndexOf(p)
		idx = append(idx, msf(timeOp(r, func() { x = core.IndexOf(p) })))
		initial := core.ExtInitial(p)
		refine = append(refine, msf(timeOp(r, func() { partition.PaigeTarjanIndex(x, initial) })))
	}
	for _, it := range pool[:min(len(pool), maxDirect)] {
		dec = append(dec, us(timeOp(r, func() { ccs.DecodeRequests(it.body[0]) })))
	}
	for _, rep := range reps[:min(len(reps), maxDirect)] {
		enc = append(enc, us(timeOp(r, func() { json.Marshal(rep) })))
	}
	if storeDir != "" {
		var st *store.Store
		var err error
		open = append(open, msf(timeOp(5, func() { st, err = store.Open(storeDir, 0) })))
		if err != nil {
			return nil, err
		}
		for _, p := range procs {
			k1, k2 := fsp.Fingerprint(p), fsp.Fingerprint2(p)
			for _, kind := range []store.Kind{store.KindCongMin, store.KindWeakMin, store.KindStrongMin} {
				if _, ok := st.GetFSP(k1, k2, kind); ok {
					get = append(get, us(timeOp(r, func() { st.GetFSP(k1, k2, kind) })))
					break
				}
			}
		}
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return div(s, float64(len(xs)))
	}
	return map[string]float64{
		"fsp.parse_us":        mean(parse),
		"fsp.fingerprint_us":  mean(fp),
		"fsp.closure_ms":      mean(clo),
		"lts.index_ms":        mean(idx),
		"partition.refine_ms": mean(refine),
		"ccs.decode_us":       mean(dec),
		"ccs.encode_us":       mean(enc),
		"store.open_ms":       mean(open),
		"store.get_us":        mean(get),
	}, nil
}
