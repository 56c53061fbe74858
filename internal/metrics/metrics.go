// Package metrics is a tiny, dependency-free instrumentation kit: atomic
// counters, gauges and fixed-bucket histograms behind a registry that
// renders the Prometheus text exposition format (version 0.0.4).
//
// The package exists because the engine's query hot path is allocation-free
// and must stay that way: recording a sample is a handful of atomic adds on
// pre-registered series — no boxing, no maps, no locks. All coordination
// (name lookup, series creation, label rendering) happens at registration
// or exposition time, never on the record path. Callers keep the returned
// *Counter/*Gauge/*Histogram and hit it directly.
//
// Registration is get-or-create and idempotent: asking twice for the same
// (name, labels) returns the same series, so layered components can share a
// registry without ownership protocol. Registering the same family name
// with a different metric type panics — that is a programming error, not a
// runtime condition.
//
// Histograms store integer samples against integer bucket bounds and apply
// a scale factor only at exposition: a latency histogram records raw
// nanoseconds (one atomic add) and renders seconds, the Prometheus
// convention, without any floating-point work per sample.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing series.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must be >= 0 for the series to stay monotone.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a series that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts integer samples into fixed buckets. Observe is a few
// atomic adds; bounds, counts and sum are only interpreted (and scaled) at
// exposition time.
type Histogram struct {
	bounds []int64 // ascending upper bounds; +Inf is implicit
	scale  float64 // multiplier applied to bounds and sum on exposition
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
}

// Observe records one sample in raw (unscaled) units.
func (h *Histogram) Observe(v int64) {
	// Linear scan: bucket counts are small (≤ ~20) and the branch pattern
	// is stable, so this beats a binary search with its function-call
	// indirection — and allocates nothing.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records d into a histogram whose raw unit is nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the scaled sum of all observed samples.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) * h.scale }

// DurationBuckets are histogram bounds in nanoseconds from 100µs to 30s,
// paired with scale 1e-9 so the series renders in seconds. They step by
// 50µs up to 250µs, where warm AKNN service times land.
func DurationBuckets() ([]int64, float64) {
	ms := int64(time.Millisecond)
	return []int64{
		int64(100 * time.Microsecond), int64(150 * time.Microsecond), int64(200 * time.Microsecond),
		int64(250 * time.Microsecond), int64(500 * time.Microsecond),
		1 * ms, 2 * ms, 5 * ms, 10 * ms, 25 * ms, 50 * ms, 100 * ms, 250 * ms, 500 * ms,
		1000 * ms, 2500 * ms, 5000 * ms, 10000 * ms, 30000 * ms,
	}, 1e-9
}

// SizeBuckets are power-of-two histogram bounds 1..max (inclusive when max
// is a power of two), scale 1 — suited to batch sizes and counts.
func SizeBuckets(max int64) ([]int64, float64) {
	var b []int64
	for v := int64(1); v <= max; v *= 2 {
		b = append(b, v)
	}
	return b, 1
}

// metric is one series: a pre-rendered label string plus its collector.
// Exactly one of counter/gauge/hist/fn is non-nil.
type metric struct {
	labels  string // rendered `{k="v",...}` or ""
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() int64
}

// family groups the series of one metric name under one HELP/TYPE block.
type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	order  []string
	series map[string]*metric
}

// Registry holds metric families and renders them. The zero value is not
// usable; create with NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// renderLabels builds the canonical `{k="v",...}` form from alternating
// key/value pairs, sorted by key so the same label set always maps to the
// same series regardless of call-site ordering.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("metrics: odd label key/value list")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
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

// getFamily returns the family, creating it on first use and panicking on a
// type conflict. Caller holds r.mu.
func (r *Registry) getFamily(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: map[string]*metric{}}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	return f
}

// getSeries returns the series for ls, creating it with mk on first use.
// Caller holds r.mu.
func (f *family) getSeries(ls string, mk func() *metric) *metric {
	m, ok := f.series[ls]
	if !ok {
		m = mk()
		m.labels = ls
		f.series[ls] = m
		f.order = append(f.order, ls)
	}
	return m
}

// Counter returns the counter series for (name, labels), registering it on
// first use. labels alternate key, value.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, "counter")
	m := f.getSeries(renderLabels(labels), func() *metric { return &metric{counter: &Counter{}} })
	if m.counter == nil {
		panic(fmt.Sprintf("metrics: %s%s is not a plain counter", name, m.labels))
	}
	return m.counter
}

// Gauge returns the gauge series for (name, labels), registering it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, "gauge")
	m := f.getSeries(renderLabels(labels), func() *metric { return &metric{gauge: &Gauge{}} })
	if m.gauge == nil {
		panic(fmt.Sprintf("metrics: %s%s is not a plain gauge", name, m.labels))
	}
	return m.gauge
}

// GaugeFunc registers a gauge series whose value is sampled by fn at
// exposition time — for values that already live elsewhere (queue lengths,
// index sizes) and would otherwise need shadow bookkeeping.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, "gauge")
	f.getSeries(renderLabels(labels), func() *metric { return &metric{fn: fn} })
}

// CounterFunc registers a counter series sampled by fn at exposition time.
// fn must be monotone for the series to make sense to scrapers.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, "counter")
	f.getSeries(renderLabels(labels), func() *metric { return &metric{fn: fn} })
}

// Histogram returns the histogram series for (name, labels), registering it
// with the given bounds and exposition scale on first use. Later calls for
// an existing series ignore bounds/scale.
func (r *Registry) Histogram(name, help string, bounds []int64, scale float64, labels ...string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, "histogram")
	m := f.getSeries(renderLabels(labels), func() *metric {
		h := &Histogram{bounds: append([]int64(nil), bounds...), scale: scale}
		h.counts = make([]atomic.Int64, len(bounds)+1)
		return &metric{hist: h}
	})
	if m.hist == nil {
		panic(fmt.Sprintf("metrics: %s%s is not a histogram", name, m.labels))
	}
	return m.hist
}

// WritePrometheus renders every registered family in registration order in
// the text exposition format. It takes a point-in-time snapshot series by
// series; a scrape concurrent with updates sees each series atomically but
// not the whole page.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.order))
	for i, name := range r.order {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		r.mu.Lock()
		order := append([]string(nil), f.order...)
		series := make([]*metric, len(order))
		for i, ls := range order {
			series[i] = f.series[ls]
		}
		r.mu.Unlock()
		for _, m := range series {
			switch {
			case m.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, m.labels, m.counter.Value())
			case m.gauge != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, m.labels, m.gauge.Value())
			case m.fn != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, m.labels, m.fn())
			case m.hist != nil:
				writeHistogram(&b, f.name, m.labels, m.hist)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative buckets with the
// le label spliced into the series labels, then _sum and _count.
func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	// Splice `le` into the existing label set: "" → `{le="x"}`,
	// `{a="b"}` → `{a="b",le="x"}`.
	prefix := "{"
	if labels != "" {
		prefix = labels[:len(labels)-1] + ","
	}
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		le := strconv.FormatFloat(float64(bound)*h.scale, 'g', -1, 64)
		fmt.Fprintf(b, "%s_bucket%sle=%q} %d\n", name, prefix, le, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"} %d\n", name, prefix, cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.count.Load())
}
