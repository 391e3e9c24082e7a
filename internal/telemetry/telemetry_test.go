package telemetry

import (
	"encoding/json"
	"maps"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"censysmap/internal/simclock"
)

// get returns the value of the named family whose labels are exactly labels
// (nil for the unlabeled value).
func get(s Snapshot, name string, labels map[string]string) (Value, bool) {
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, v := range f.Values {
			if maps.Equal(v.Labels, labels) {
				return v, true
			}
		}
	}
	return Value{}, false
}

// total sums every value of the named family.
func total(s Snapshot, name string) float64 {
	t := 0.0
	for _, f := range s.Families {
		if f.Name == name {
			for _, v := range f.Values {
				t += v.Value
			}
		}
	}
	return t
}

func TestCounterConcurrentAdds(t *testing.T) {
	c := NewCounter()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 8006 {
		t.Fatalf("counter total = %d, want 8006", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", []float64{1})
	gh := r.GaugeHistogram("w", "", []float64{1})
	v := r.CounterVec("v", "", "l")
	hv := r.HistogramVec("hv", "", "l", []float64{1})
	var tr *Tracer

	// None of these may panic.
	c.Inc()
	c.Add(2)
	g.Set(1)
	h.Observe(1)
	gh.Set([]float64{1, 2})
	v.With("a").Inc()
	hv.With("a").Observe(1)
	r.CounterFunc("f", "", nil, func() float64 { return 1 })
	r.GaugeFunc("f2", "", nil, func() float64 { return 1 })
	r.OnCollect(func(time.Time) {})
	if tr.Hit(netip.MustParseAddr("10.0.0.1")) {
		t.Fatal("nil tracer sampled an address")
	}
	tr.Event("t", "s", "", time.Time{})
	if tr.Spans() != nil || tr.Len() != 0 {
		t.Fatal("nil tracer returned spans")
	}
	snap := r.Snapshot(time.Time{})
	if len(snap.Families) != 0 {
		t.Fatal("nil registry returned families")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments held values")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("censys_test_hist", "help", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot(simclock.Epoch)
	val, ok := get(snap, "censys_test_hist", nil)
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// Cumulative: le=1 -> 2 (0.5, 1), le=2 -> 3, le=4 -> 4, +Inf -> 5.
	wantCum := []uint64{2, 3, 4, 5}
	wantLE := []string{"1", "2", "4", "+Inf"}
	for i, b := range val.Buckets {
		if b.Count != wantCum[i] || b.LE != wantLE[i] {
			t.Fatalf("bucket %d = {%s %d}, want {%s %d}", i, b.LE, b.Count, wantLE[i], wantCum[i])
		}
	}
	if val.Count != 5 || val.Sum != 106 {
		t.Fatalf("count/sum = %d/%v, want 5/106", val.Count, val.Sum)
	}
}

func TestGaugeHistogramSetReplaces(t *testing.T) {
	r := New()
	gh := r.GaugeHistogram("censys_test_ghist", "", []float64{10, 20})
	gh.Set([]float64{5, 15, 25, 25})
	gh.Set([]float64{5, 15}) // replaces, not accumulates
	val, _ := get(r.Snapshot(simclock.Epoch), "censys_test_ghist", nil)
	if val.Count != 2 || val.Sum != 20 {
		t.Fatalf("ghist count/sum = %d/%v, want 2/20", val.Count, val.Sum)
	}
}

func TestVecChildrenAndFuncs(t *testing.T) {
	r := New()
	v := r.CounterVec("censys_test_vec", "h", "kind")
	a, b := v.With("a"), v.With("b")
	if v.With("a") != a {
		t.Fatal("With not idempotent")
	}
	a.Add(2)
	b.Add(3)
	r.CounterFunc("censys_test_fn", "h", map[string]string{"pop": "chi"}, func() float64 { return 7 })
	r.GaugeFunc("censys_test_gauge_fn", "h", nil, func() float64 { return 1.5 })

	snap := r.Snapshot(simclock.Epoch)
	if got := total(snap, "censys_test_vec"); got != 5 {
		t.Fatalf("vec total = %v, want 5", got)
	}
	if val, ok := get(snap, "censys_test_vec", map[string]string{"kind": "b"}); !ok || val.Value != 3 {
		t.Fatalf("vec child b = %+v ok=%v", val, ok)
	}
	if val, ok := get(snap, "censys_test_fn", map[string]string{"pop": "chi"}); !ok || val.Value != 7 {
		t.Fatalf("counter func = %+v ok=%v", val, ok)
	}
	if val, ok := get(snap, "censys_test_gauge_fn", nil); !ok || val.Value != 1.5 {
		t.Fatalf("gauge func = %+v ok=%v", val, ok)
	}
}

// TestVecWithAllocatesNothing: once a label value is registered, With
// returns its child without the registry lock and without allocating, so a
// request that counts and times itself per route costs no garbage.
func TestVecWithAllocatesNothing(t *testing.T) {
	r := New()
	cv := r.CounterVec("censys_test_vec", "h", "route")
	hv := r.HistogramVec("censys_test_hvec", "h", "route", []float64{1, 2, 4})
	route := string([]byte("GET /v2/hosts/{ip}")) // not a constant: a fresh string
	cv.With(route).Inc()
	hv.With(route).Observe(1)
	if n := testing.AllocsPerRun(100, func() {
		cv.With(route).Inc()
		hv.With(route).Observe(3)
	}); n != 0 {
		t.Fatalf("With(v).Inc() and With(v).Observe() allocate %v per call pair, want 0", n)
	}
	snap := r.Snapshot(simclock.Epoch)
	if val, _ := get(snap, "censys_test_vec", map[string]string{"route": route}); val.Value != 102 {
		t.Fatalf("counter = %v, want 102", val.Value)
	}
	if val, _ := get(snap, "censys_test_hvec", map[string]string{"route": route}); val.Count != 102 {
		t.Fatalf("histogram count = %v, want 102", val.Count)
	}
}

func TestCollectHooksRun(t *testing.T) {
	r := New()
	g := r.Gauge("censys_test_hook_gauge", "")
	r.OnCollect(func(now time.Time) { g.Set(float64(now.Unix())) })
	at := simclock.Epoch.Add(time.Hour)
	val, _ := get(r.Snapshot(at), "censys_test_hook_gauge", nil)
	if val.Value != float64(at.Unix()) {
		t.Fatalf("hook did not run: %v", val.Value)
	}
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	build := func() *Registry {
		r := New()
		v := r.CounterVec("censys_b", "h", "shard")
		for _, s := range []string{"2", "0", "1"} {
			v.With(s).Add(1)
		}
		r.Gauge("censys_a", "h").Set(4)
		r.Histogram("censys_c", "h", []float64{1, 2}).Observe(1.5)
		return r
	}
	s1, s2 := build().Snapshot(simclock.Epoch), build().Snapshot(simclock.Epoch)
	j1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(s2)
	if string(j1) != string(j2) {
		t.Fatal("identical registries produced different snapshots")
	}
	if s1.Families[0].Name != "censys_a" || s1.Families[1].Name != "censys_b" {
		t.Fatalf("families not sorted: %s, %s", s1.Families[0].Name, s1.Families[1].Name)
	}
	vals := s1.Families[1].Values
	if vals[0].Labels["shard"] != "0" || vals[2].Labels["shard"] != "2" {
		t.Fatal("vec children not sorted by label value")
	}
	if t1, t2 := s1.PrometheusText(), s2.PrometheusText(); t1 != t2 {
		t.Fatal("text expositions differ")
	}
}

func TestPrometheusTextFormat(t *testing.T) {
	r := New()
	r.CounterVec("censys_test_faults_total", "faults by kind", "kind").With("loss").Add(3)
	r.Histogram("censys_test_lat", "latency", []float64{0.5}).Observe(0.25)
	text := r.Snapshot(simclock.Epoch).PrometheusText()
	for _, want := range []string{
		"# HELP censys_test_faults_total faults by kind",
		"# TYPE censys_test_faults_total counter",
		`censys_test_faults_total{kind="loss"} 3`,
		"# TYPE censys_test_lat histogram",
		`censys_test_lat_bucket{le="0.5"} 1`,
		`censys_test_lat_bucket{le="+Inf"} 1`,
		"censys_test_lat_sum 0.25",
		"censys_test_lat_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("censys_test_total", "h").Add(9)
	r.Histogram("censys_test_h", "h", []float64{1}).Observe(2)
	blob, err := json.Marshal(r.Snapshot(simclock.Epoch))
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if v, ok := get(back, "censys_test_total", nil); !ok || v.Value != 9 {
		t.Fatalf("round-tripped counter = %+v ok=%v", v, ok)
	}
	if v, _ := get(back, "censys_test_h", nil); len(v.Buckets) != 2 || v.Buckets[1].LE != "+Inf" {
		t.Fatalf("round-tripped histogram buckets = %+v", v.Buckets)
	}
}

func TestRegistryReuseAndKindConflict(t *testing.T) {
	r := New()
	if r.Counter("censys_x", "h") != r.Counter("censys_x", "h") {
		t.Fatal("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting kind did not panic")
		}
	}()
	r.Gauge("censys_x", "h")
}

func TestTracerSamplingDeterministic(t *testing.T) {
	tr := NewTracer(4)
	sampled := 0
	base := netip.MustParseAddr("10.0.0.0").As4()
	for i := 0; i < 1024; i++ {
		b := base
		b[2], b[3] = byte(i>>8), byte(i)
		a := netip.AddrFrom4(b)
		if tr.Hit(a) != tr.Hit(a) {
			t.Fatal("sampling not stable")
		}
		if tr.Hit(a) {
			sampled++
		}
	}
	// ~1/4 of 1024; allow generous slack, the property under test is
	// determinism and rough rate, not hash quality.
	if sampled < 128 || sampled > 512 {
		t.Fatalf("sampled %d of 1024 at mod 4", sampled)
	}
	if !NewTracer(1).Hit(netip.AddrFrom4(base)) {
		t.Fatal("mod 1 must sample everything")
	}
}

func TestTracerSpansOrderedAndCapped(t *testing.T) {
	tr := NewTracer(1)
	now := simclock.Epoch
	tr.Event("10.0.0.2", "discovery", "", now)
	tr.Event("10.0.0.1", "discovery", "syn-ack", now)
	tr.Event("10.0.0.1", "interrogate", "ok", now.Add(time.Hour))
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Target != "10.0.0.1" || spans[1].Target != "10.0.0.2" {
		t.Fatalf("spans not sorted by target: %+v", spans)
	}
	if len(spans[0].Events) != 2 || spans[0].Events[1].Stage != "interrogate" {
		t.Fatalf("span events wrong: %+v", spans[0].Events)
	}
	// Event cap: the span marks truncation instead of growing unbounded.
	for i := 0; i < defaultMaxSpanEvents+10; i++ {
		tr.Event("10.0.0.3", "cqrs", "", now)
	}
	for _, sp := range tr.Spans() {
		if sp.Target == "10.0.0.3" {
			if len(sp.Events) != defaultMaxSpanEvents || !sp.Truncated {
				t.Fatalf("cap not enforced: %d events, truncated=%v", len(sp.Events), sp.Truncated)
			}
		}
	}
}
