// Package obs is the repo's dependency-free observability layer: a
// metrics registry with Prometheus text exposition (counters, gauges,
// fixed-bucket histograms, with or without labels), a lightweight
// per-query span tracer, and a context-carried progress hook for the
// on-the-fly game. Everything is safe for concurrent use and built so
// the disabled path costs nothing measurable: metrics are plain atomics
// behind package-var handles, and the tracer's context lookup is gated
// by a single atomic load (see trace.go).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets returns the default latency histogram upper bounds, in
// seconds, spanning sub-millisecond quotient hits to multi-second
// saturations. Returned fresh so callers can append +Inf-free.
func DefBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must not be negative.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets. Each
// observation touches one bucket counter, the sum, and the count — all
// atomics, no locks.
type Histogram struct {
	upper  []float64      // sorted upper bounds; the implicit +Inf bucket follows
	counts []atomic.Int64 // len(upper)+1
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values so far.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one metric name: its metadata plus every labeled series
// registered under it. Unlabeled metrics are the single series with the
// empty key.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64      // histograms only
	fn      func() float64 // GaugeFunc only; called at scrape time

	mu     sync.RWMutex
	series map[string]any // label-value key -> *Counter / *Gauge / *Histogram
	vals   map[string][]string
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All getters are get-or-create: asking twice for the
// same name returns the same handle, so independent subsystems (or two
// servers in one test process) can share series without coordination.
// Re-registering a name with a different type or label set panics — that
// is a programming error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that the engine, store and
// server publish into.
func Default() *Registry { return defaultRegistry }

func (r *Registry) family(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v", name, typ, labels, f.typ, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with labels %v, was %v", name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]any),
		vals:    make(map[string][]string),
	}
	r.families[name] = f
	return f
}

// series returns the metric under key, creating it with mk on first use.
func (f *family) get(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	m, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	m = mk()
	f.series[key] = m
	f.vals[key] = append([]string(nil), values...)
	return m
}

// Counter returns the unlabeled counter name, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, typeCounter, nil, nil)
	return f.get(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with labels; With picks a series.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, typeCounter, labels, nil)}
}

// With returns the series for the given label values (in declaration
// order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, typeGauge, labels, nil)}
}

// With returns the series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time (e.g. the size of a live cache). The first registration wins;
// later calls with the same name are no-ops, so restarting a subsystem
// in-process doesn't panic.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, typeGauge, nil, nil)
	f.mu.Lock()
	if f.fn == nil {
		f.fn = fn
	}
	f.mu.Unlock()
}

// Histogram returns the unlabeled histogram name with the given upper
// bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	buckets = normBuckets(buckets)
	f := r.family(name, help, typeHistogram, nil, buckets)
	return f.get(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family name.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	buckets = normBuckets(buckets)
	return &HistogramVec{f: r.family(name, help, typeHistogram, labels, buckets)}
}

// With returns the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

func normBuckets(b []float64) []float64 {
	if len(b) == 0 {
		b = DefBuckets()
	}
	b = append([]float64(nil), b...)
	sort.Float64s(b)
	return b
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Int64, len(upper)+1)}
}

// WritePrometheus renders every family in text exposition format
// (version 0.0.4): families sorted by name, HELP and TYPE comment lines,
// histograms as cumulative _bucket{le=...} series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	fn := f.fn
	f.mu.RUnlock()
	sort.Strings(keys)

	if len(keys) == 0 && fn == nil {
		return // registered but never used; skip the empty family
	}
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	if fn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(fn()))
		return
	}
	for _, key := range keys {
		f.mu.RLock()
		m := f.series[key]
		vals := f.vals[key]
		f.mu.RUnlock()
		lbl := labelString(f.labels, vals, "")
		switch m := m.(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, lbl, m.Value())
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, lbl, formatFloat(m.Value()))
		case *Histogram:
			var cum int64
			for i, ub := range m.upper {
				cum += m.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, vals, formatFloat(ub)), cum)
			}
			cum += m.counts[len(m.upper)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, vals, "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, lbl, formatFloat(m.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, lbl, m.Count())
		}
	}
}

// labelString renders {k="v",...}; le, when non-empty, is appended as the
// histogram bucket bound. Returns "" for the unlabeled, non-bucket case.
func labelString(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
