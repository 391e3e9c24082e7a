// Package telemetry is the pipeline's observability subsystem: a
// dependency-free registry of sharded counters, gauges, and fixed-bucket
// histograms, plus sampled per-target trace spans (trace.go) and Prometheus
// text / JSON exposition (expose.go).
//
// Design constraints, in order:
//
//   - Determinism. Metric *values* must be a pure function of the simulated
//     run, never of goroutine interleaving, so the chaos/differential suites
//     stay bit-identical with instrumentation on. Counters are additive
//     (the order of adds never changes the total), histograms observe
//     deterministic quantities (simulated-time deltas, batch sizes), and all
//     timestamps come from the caller's clock — this package never reads
//     wall time.
//   - Near-zero disabled overhead. Every instrument method is nil-receiver
//     safe, so a disabled pipeline carries only nil-check branches on dead
//     pointers; there is no "no-op implementation" indirection to allocate
//     or dispatch through.
//   - Allocation-light enabled overhead. Hot-path updates are single atomic
//     adds; family lookups happen at registration time, and a vec's With
//     finds an existing label child in a lock-free map without allocating.
//
// Collection is pull-based: Snapshot(now) runs registered collect hooks
// (which derive expensive gauges, e.g. the paper-metric freshness and
// coverage figures) and returns a deterministic, sorted Snapshot that both
// expositions render from.
package telemetry

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns an unregistered Counter (used where the instrumented
// component must count regardless of whether a Registry is attached, e.g.
// the chaos injector).
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. A nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Observations are
// assigned to the first bucket whose upper bound is >= v; an implicit +Inf
// bucket catches the rest. A nil Histogram is a no-op.
//
// The float64 sum is updated with a CAS loop; when observations arrive
// concurrently its rounding can in principle depend on arrival order, so
// deterministic pipelines observe histograms from serial code (phase
// coordinators, the event-drain goroutine) or observe values that are
// identical across interleavings (simulated-clock deltas).
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// GaugeHistogram is a histogram whose contents are replaced wholesale at
// collect time — the shape for derived distributions (e.g. dataset
// freshness) that are recomputed from current state rather than accumulated
// event by event. A nil GaugeHistogram is a no-op.
type GaugeHistogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []uint64
	sum    float64
}

// Set replaces the histogram contents with the distribution of values.
func (g *GaugeHistogram) Set(values []float64) {
	if g == nil {
		return
	}
	counts := make([]uint64, len(g.bounds)+1)
	sum := 0.0
	for _, v := range values {
		counts[sort.SearchFloat64s(g.bounds, v)]++
		sum += v
	}
	g.mu.Lock()
	g.counts = counts
	g.sum = sum
	g.mu.Unlock()
}

// --- registry ---

// metric kinds (also the exposition TYPE strings).
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// child is one labeled instrument inside a family.
type child struct {
	labels map[string]string
	key    string // canonical sorted labels, for deterministic ordering

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	ghist   *GaugeHistogram
	fn      func() float64 // CounterFunc / GaugeFunc
	// provided marks a counter supplied by the caller (RegisterCounter)
	// rather than allocated by the registry — re-registration re-binds it.
	provided bool
}

// family is all instruments sharing one metric name.
type family struct {
	name, help, kind string
	bounds           []float64 // histogram families
	children         []*child
	byKey            map[string]*child
}

// Registry holds metric families and collect hooks. A nil Registry returns
// nil instruments from every constructor, so a disabled component needs no
// branches beyond the ones already inside each instrument method.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	hooks []func(now time.Time)
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// OnCollect registers a hook run by Snapshot before values are gathered —
// the place to derive gauges that are too expensive to maintain per event.
func (r *Registry) OnCollect(fn func(now time.Time)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// labelKey canonicalizes a label set for deterministic child ordering.
func labelKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + "\x00" + labels[k] + "\x00"
	}
	return out
}

// fam returns (creating if needed) the family for name, checking kind.
func (r *Registry) fam(name, help, kind string, bounds []float64) *family {
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bounds: bounds,
			byKey: make(map[string]*child)}
		r.fams[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// add registers a child under a family, returning the existing child when
// the same (name, labels) pair was registered before. Func-backed and
// caller-provided children are re-bound on re-registration — the newest
// backing wins — so a pipeline rebuilt over a surviving registry (crash
// recovery) repoints its collect-time bridges at the live components instead
// of reading the dead ones forever.
func (r *Registry) add(name, help, kind string, bounds []float64, labels map[string]string, build func() *child) *child {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, kind, bounds)
	key := labelKey(labels)
	if c := f.byKey[key]; c != nil {
		nc := build()
		if nc.fn != nil {
			c.fn = nc.fn
		} else if nc.provided {
			c.counter = nc.counter
		}
		return c
	}
	c := build()
	c.labels = labels
	c.key = key
	f.byKey[key] = c
	f.children = append(f.children, c)
	return c
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.add(name, help, kindCounter, nil, nil,
		func() *child { return &child{counter: NewCounter()} }).counter
}

// CounterFunc registers a counter whose value is read from fn at collect
// time — the zero-hot-path-cost bridge from a component's existing atomic
// counters into the registry. labels may be nil.
func (r *Registry) CounterFunc(name, help string, labels map[string]string, fn func() float64) {
	if r == nil {
		return
	}
	r.add(name, help, kindCounter, nil, labels, func() *child { return &child{fn: fn} })
}

// RegisterCounter exposes an existing (possibly shared) Counter under name.
func (r *Registry) RegisterCounter(name, help string, labels map[string]string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.add(name, help, kindCounter, nil, labels, func() *child { return &child{counter: c, provided: true} })
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.add(name, help, kindGauge, nil, nil,
		func() *child { return &child{gauge: &Gauge{}} }).gauge
}

// GaugeFunc registers a gauge read from fn at collect time. labels may be nil.
func (r *Registry) GaugeFunc(name, help string, labels map[string]string, fn func() float64) {
	if r == nil {
		return
	}
	r.add(name, help, kindGauge, nil, labels, func() *child { return &child{fn: fn} })
}

// Histogram registers (or fetches) an unlabeled fixed-bucket histogram.
// bounds must be sorted ascending; an implicit +Inf bucket is appended.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.add(name, help, kindHistogram, bounds, nil, func() *child {
		return &child{hist: &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}}
	}).hist
}

// GaugeHistogram registers a collect-time-settable histogram.
func (r *Registry) GaugeHistogram(name, help string, bounds []float64) *GaugeHistogram {
	if r == nil {
		return nil
	}
	return r.add(name, help, kindHistogram, bounds, nil, func() *child {
		return &child{ghist: &GaugeHistogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}}
	}).ghist
}

// children caches a vec's registered children by label value. A lookup
// reads an immutable map through one atomic load — no lock, no allocation;
// a value's first use registers it under the registry lock, as any
// registration does, and publishes a copy of the map with the new child.
type children[T any] struct {
	mu sync.Mutex
	m  atomic.Pointer[map[string]*T]
}

func (c *children[T]) get(value string, register func() *T) *T {
	if m := c.m.Load(); m != nil {
		if x := (*m)[value]; x != nil {
			return x
		}
	}
	x := register() // registering a value again returns its existing child
	c.mu.Lock()
	defer c.mu.Unlock()
	next := map[string]*T{value: x}
	if m := c.m.Load(); m != nil {
		maps.Copy(next, *m)
	}
	c.m.Store(&next)
	return x
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct {
	r     *Registry
	name  string
	help  string
	label string
	kids  children[Counter]
}

// CounterVec registers a labeled counter family. Children are created by
// With on first use; later calls for the same value return the child
// without touching the registry.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.fam(name, help, kindCounter, nil)
	r.mu.Unlock()
	return &CounterVec{r: r, name: name, help: help, label: label}
}

// With returns the child counter for one label value.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	return v.kids.get(value, func() *Counter {
		return v.r.add(v.name, v.help, kindCounter, nil, map[string]string{v.label: value},
			func() *child { return &child{counter: NewCounter()} }).counter
	})
}

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct {
	r      *Registry
	name   string
	help   string
	label  string
	bounds []float64
	kids   children[Histogram]
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.fam(name, help, kindHistogram, bounds)
	r.mu.Unlock()
	return &HistogramVec{r: r, name: name, help: help, label: label, bounds: bounds}
}

// With returns the child histogram for one label value.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	return v.kids.get(value, func() *Histogram {
		return v.r.add(v.name, v.help, kindHistogram, v.bounds, map[string]string{v.label: value},
			func() *child {
				return &child{hist: &Histogram{bounds: v.bounds, counts: make([]atomic.Uint64, len(v.bounds)+1)}}
			}).hist
	})
}

// --- snapshot ---

// Bucket is one cumulative histogram bucket. LE is the upper bound rendered
// as a string ("24", "+Inf") so both expositions share one representation.
type Bucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// Value is one labeled instrument's collected state.
type Value struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Buckets []Bucket          `json:"buckets,omitempty"`
	Count   uint64            `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
}

// Family is one metric family's collected state.
type Family struct {
	Name   string  `json:"name"`
	Help   string  `json:"help"`
	Type   string  `json:"type"`
	Values []Value `json:"values"`
}

// Snapshot is the registry's full collected state: families sorted by name,
// values sorted by canonical label key — byte-stable for equal inputs.
type Snapshot struct {
	At       time.Time `json:"at"`
	Families []Family  `json:"families"`
}

// Snapshot runs collect hooks and gathers every family. now must come from
// the pipeline's clock (simulated in tests and experiments).
func (r *Registry) Snapshot(now time.Time) Snapshot {
	if r == nil {
		return Snapshot{At: now}
	}
	r.mu.Lock()
	hooks := make([]func(time.Time), len(r.hooks))
	copy(hooks, r.hooks)
	r.mu.Unlock()
	for _, h := range hooks {
		h(now)
	}

	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := Snapshot{At: now, Families: make([]Family, 0, len(fams))}
	for _, f := range fams {
		children := make([]*child, len(f.children))
		copy(children, f.children)
		sort.Slice(children, func(i, j int) bool { return children[i].key < children[j].key })
		fam := Family{Name: f.name, Help: f.help, Type: f.kind}
		for _, c := range children {
			fam.Values = append(fam.Values, c.collect(f.bounds))
		}
		out.Families = append(out.Families, fam)
	}
	return out
}

// collect gathers one child's state.
func (c *child) collect(bounds []float64) Value {
	v := Value{Labels: c.labels}
	switch {
	case c.counter != nil:
		v.Value = float64(c.counter.Value())
	case c.gauge != nil:
		v.Value = c.gauge.Value()
	case c.fn != nil:
		v.Value = c.fn()
	case c.hist != nil:
		cum := uint64(0)
		for i := range c.hist.counts {
			cum += c.hist.counts[i].Load()
			v.Buckets = append(v.Buckets, Bucket{LE: leString(bounds, i), Count: cum})
		}
		v.Count = cum
		v.Sum = c.hist.Sum()
	case c.ghist != nil:
		c.ghist.mu.Lock()
		cum := uint64(0)
		for i, n := range c.ghist.counts {
			cum += n
			v.Buckets = append(v.Buckets, Bucket{LE: leString(bounds, i), Count: cum})
		}
		v.Count = cum
		v.Sum = c.ghist.sum
		c.ghist.mu.Unlock()
	}
	return v
}

// leString renders bucket i's upper bound.
func leString(bounds []float64, i int) string {
	if i >= len(bounds) {
		return "+Inf"
	}
	return formatFloat(bounds[i])
}
