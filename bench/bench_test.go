package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/netip"
	"os"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {99.9, 100}, {0, 1}, {100, 100}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestHighestPercentile(t *testing.T) {
	// At least ten samples must lie beyond the percentile reported.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32], n=4) == [1.75, 6.0, 20.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16, 32})
	if q1 != 1.75 || q2 != 6 || q3 != 20 {
		t.Errorf("quartiles(1,2,4,8,16,32) = %v %v %v, want 1.75 6 20", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16, 32}); math.Abs(got-18.25/6) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 18.25/6)
	}
}

func TestSpeedFactor(t *testing.T) {
	// A machine running at half the declared speed takes twice REF_NOMINAL per
	// kernel run, so measured times are halved.
	if got := speedFactor([]float64{2 * refNominalSec, 2 * refNominalSec, 2 * refNominalSec}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("factor at half speed = %v, want 0.5", got)
	}
	if got := speedFactor([]float64{refNominalSec / 2, refNominalSec * 1.5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("factor with refs averaging nominal = %v, want 1", got)
	}
	if got := speedFactor(nil); got != 1 {
		t.Errorf("factor without refs = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},    // overlaps a: a second client
		{Name: "c", Start: 60, End: 120, Parent: 0},   // runs past the parent: clipped
		{Name: "leaf", Start: 12, End: 18, Parent: 1}, // grandchild: only a's business
	}
	self := selfTimes(spans)
	for i, want := range []int64{20, 14, 30, 60, 6} {
		if self[i] != want {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want)
		}
	}
	tot := totals(spans)
	if tot[0].Name != "parent" || tot[0].Count != 1 || tot[0].Self != 20e-9 {
		t.Errorf("totals()[0] = %+v, want the parent with 20ns self time", tot[0])
	}
}

func TestNilTracerAllocatesNothing(t *testing.T) {
	var tr *tracer
	at := now()
	if n := testing.AllocsPerRun(100, func() {
		id := tr.open("x", -1, at)
		tr.leaf("y", id, at, at)
		tr.end(id, at)
	}); n != 0 {
		t.Errorf("nil tracer allocated %v times per span", n)
	}
	if tr.recorded() != nil {
		t.Error("nil tracer recorded spans")
	}
}

func TestTracerDropsBeyondCapacity(t *testing.T) {
	tr := newTracer("t", 2)
	at := now()
	for i := 0; i < 5; i++ {
		tr.leaf("s", -1, at, at.Add(time.Millisecond))
	}
	if len(tr.recorded()) != 2 || tr.dropped.Load() != 3 {
		t.Errorf("recorded %d dropped %d, want 2 and 3", len(tr.recorded()), tr.dropped.Load())
	}
}

func testInputs() ([]netip.Addr, vocab) {
	var hosts []netip.Addr
	for i := 1; i <= 200; i++ {
		hosts = append(hosts, netip.AddrFrom4([4]byte{10, 0, byte(i / 200), byte(i)}))
	}
	return hosts, vocab{
		Protocols: []string{"HTTP", "SSH", "FTP", "MODBUS", "SMTP", "DNS"},
		Countries: []string{"US", "DE", "CN", "BR"},
		Ports:     []uint16{80, 443, 22, 21, 502, 25, 53, 8080},
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	hosts, v := testInputs()
	build := func(seed uint64) []byte {
		s, err := buildSchedule(seed, hosts, buildPool(v), 5000)
		if err != nil {
			t.Fatal(err)
		}
		return s.render()
	}
	a, b, c := build(7), build(7), build(8)
	if !bytes.Equal(a, b) {
		t.Error("same seed gave two different schedules")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same schedule")
	}
}

func TestScheduleMix(t *testing.T) {
	hosts, v := testInputs()
	s, err := buildSchedule(1, hosts, buildPool(v), 20000)
	if err != nil {
		t.Fatal(err)
	}
	var n [kindCount]int
	for _, id := range s.Order {
		n[s.Targets[id].Kind]++
	}
	for k, want := range [kindCount]float64{0.7, 0.2, 0.1} {
		if got := float64(n[k]) / float64(len(s.Order)); math.Abs(got-want) > 0.02 {
			t.Errorf("%s share = %.3f, want about %.1f", spanNames[k], got, want)
		}
	}
}

func TestScaling(t *testing.T) {
	for _, w := range workloads {
		if w.ScanDays%w.ChunkDays != 0 || w.ScanDays/w.ChunkDays < 8 {
			t.Errorf("%s: %d scan days do not make at least eight chunks of %d", w.Name, w.ScanDays, w.ChunkDays)
		}
		if got := w.scaled(nominalSeconds); got != w {
			t.Errorf("%s: scaling to the nominal length changed the workload: %+v", w.Name, got)
		}
		half := w.scaled(nominalSeconds / 2)
		if half.ScanDays%w.ChunkDays != 0 || half.ScanDays < w.ScanDays/2 || half.ScanDays > w.ScanDays/2+w.ChunkDays {
			t.Errorf("%s: half-length run scans %d days of %d in chunks of %d", w.Name, half.ScanDays, w.ScanDays, w.ChunkDays)
		}
		if half.BatchPerTick > 0 && half.Requests != half.ScanDays*ticksPerDay*half.BatchPerTick {
			t.Errorf("%s: live schedule of %d requests does not fill %d days of batches", w.Name, half.Requests, half.ScanDays)
		}
		if w.WarmDays != half.WarmDays {
			t.Errorf("%s: set-up must not scale", w.Name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's own tables saying
// the same thing.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, the workload table is sized for %d", doc.RunSeconds, nominalSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %q, implemented %q", i, doc.Workloads[i].Name, w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics declared, %d implemented", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: declared %+v, implemented %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestTinyWorkloadEndToEnd runs the whole script on a /24 so the five phases
// and every check in verify execute in a test. The layer isolation of a
// traced run is left to `bench -trace 1`: it alone takes two seconds.
func TestTinyWorkloadEndToEnd(t *testing.T) {
	w := workload{Name: "tiny", Prefix: "10.0.0.0/24", Density: 0.6, MeanServices: 2, CloudBlocks: 1, Churn: 0.35,
		Predictive: true, WarmDays: 1, ScanDays: 1, ChunkDays: 1, Requests: ticksPerDay*10 + 200, BatchPerTick: 10, Recovers: 1}
	tr := newTracer("tiny", spanCapacity(w))
	r, err := runWorkload(w, 3, tr, nil, t.TempDir()+"/run")
	if err != nil {
		t.Fatal(err)
	}
	if r.res.Failed != 0 {
		t.Errorf("%d of %d checks failed: %v", r.res.Failed, r.res.Attempted, r.res.Fails)
	}
	for _, d := range endToEnd {
		if v, ok := r.res.E2E[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (measured: %t), want a positive number", d.Name, v, ok)
		}
	}
	if tr.dropped.Load() != 0 {
		t.Errorf("span capacity %d was too small: %d dropped", spanCapacity(w), tr.dropped.Load())
	}
}
