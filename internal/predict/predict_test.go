package predict

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"censysmap/internal/entity"
)

var t0 = time.Date(2024, 8, 20, 0, 0, 0, 0, time.UTC)

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestCooccurrenceRecommendation(t *testing.T) {
	e := New(DefaultConfig())
	// Teach: hosts with 80 almost always also run 8443.
	for i := 0; i < 20; i++ {
		a := ip(fmt.Sprintf("10.1.%d.5", i))
		e.Observe(a, 80, entity.TCP)
		e.Observe(a, 8443, entity.TCP)
	}
	// A fresh host with only 80 should get 8443 recommended.
	target := ip("10.9.0.1")
	e.Observe(target, 80, entity.TCP)
	recs := e.Recommend(t0, 1000)
	for _, r := range recs {
		if r.Addr == target && r.Port == 8443 {
			return
		}
	}
	t.Fatalf("8443 not recommended for host with 80; recs=%v", recs)
}

func TestNetworkLocalityRecommendation(t *testing.T) {
	e := New(DefaultConfig())
	// Teach: this /24 is full of port-7777 services.
	for i := 1; i <= 10; i++ {
		e.Observe(ip(fmt.Sprintf("10.2.3.%d", i)), 7777, entity.TCP)
	}
	// Another host in the same /24, known only for port 22.
	target := ip("10.2.3.200")
	e.Observe(target, 22, entity.TCP)
	recs := e.Recommend(t0, 1000)
	for _, r := range recs {
		if r.Addr == target && r.Port == 7777 {
			if r.Reason != "net24" {
				t.Fatalf("reason = %q, want net24", r.Reason)
			}
			return
		}
	}
	t.Fatalf("7777 not recommended within its /24; recs=%v", recs)
}

func TestRecommendSkipsKnownPorts(t *testing.T) {
	e := New(DefaultConfig())
	a := ip("10.0.0.1")
	e.Observe(a, 80, entity.TCP)
	e.Observe(a, 443, entity.TCP)
	for _, r := range e.Recommend(t0, 100) {
		if r.Addr == a && (r.Port == 80 || r.Port == 443) {
			t.Fatalf("recommended already-known port %d", r.Port)
		}
	}
}

func TestCooldownSuppressesRepeats(t *testing.T) {
	e := New(DefaultConfig())
	for i := 0; i < 5; i++ {
		a := ip(fmt.Sprintf("10.1.0.%d", i+1))
		e.Observe(a, 80, entity.TCP)
		e.Observe(a, 8080, entity.TCP)
	}
	b := ip("10.3.0.1")
	e.Observe(b, 80, entity.TCP)
	first := e.Recommend(t0, 1000)
	if len(first) == 0 {
		t.Fatal("no recommendations")
	}
	again := e.Recommend(t0.Add(time.Hour), 1000)
	for _, r := range again {
		for _, f := range first {
			if r == f {
				t.Fatalf("target %+v re-recommended within cooldown", r)
			}
		}
	}
	later := e.Recommend(t0.Add(25*time.Hour), 1000)
	if len(later) == 0 {
		t.Fatal("cooldown never expires")
	}
}

func TestBudgetRespected(t *testing.T) {
	e := New(DefaultConfig())
	for i := 0; i < 30; i++ {
		a := ip(fmt.Sprintf("10.1.%d.1", i))
		e.Observe(a, 80, entity.TCP)
		e.Observe(a, 8080, entity.TCP)
	}
	if got := e.Recommend(t0, 5); len(got) > 5 {
		t.Fatalf("budget exceeded: %d", len(got))
	}
	if got := e.Recommend(t0, 0); got != nil {
		t.Fatal("zero budget returned targets")
	}
}

func TestReinjectionLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	e := New(cfg)
	a := ip("10.0.0.9")
	e.RecordEvicted(a, 8080, entity.TCP, t0)
	if e.ModelStats().PendingReinjections != 1 {
		t.Fatal("eviction not queued")
	}

	// Due immediately; then not again until the cadence elapses.
	first := e.Reinjections(t0.Add(time.Hour))
	if len(first) != 1 || first[0].Addr != a || first[0].Port != 8080 {
		t.Fatalf("first = %v", first)
	}
	if got := e.Reinjections(t0.Add(2 * time.Hour)); len(got) != 0 {
		t.Fatalf("retried before cadence: %v", got)
	}
	if got := e.Reinjections(t0.Add(26 * time.Hour)); len(got) != 1 {
		t.Fatalf("not retried after cadence: %v", got)
	}

	// After 60 days, the target ages out.
	if got := e.Reinjections(t0.Add(61 * 24 * time.Hour)); len(got) != 0 {
		t.Fatalf("aged-out target retried: %v", got)
	}
	if e.ModelStats().PendingReinjections != 0 {
		t.Fatal("aged-out target not removed")
	}
}

func TestResolveStopsReinjection(t *testing.T) {
	e := New(DefaultConfig())
	a := ip("10.0.0.9")
	e.RecordEvicted(a, 8080, entity.TCP, t0)
	e.Resolve(a, 8080, entity.TCP)
	if got := e.Reinjections(t0.Add(time.Hour)); len(got) != 0 {
		t.Fatalf("resolved target retried: %v", got)
	}
}

func TestEvictionRemovesFromHostModel(t *testing.T) {
	e := New(DefaultConfig())
	a := ip("10.0.0.1")
	e.Observe(a, 80, entity.TCP)
	e.Observe(a, 443, entity.TCP)
	e.RecordEvicted(a, 443, entity.TCP, t0)
	// 443 can now be recommended again for this host once re-learned
	// elsewhere; more importantly, it is no longer "known".
	for i := 0; i < 5; i++ {
		b := ip(fmt.Sprintf("10.1.0.%d", i+1))
		e.Observe(b, 80, entity.TCP)
		e.Observe(b, 443, entity.TCP)
	}
	recs := e.Recommend(t0, 1000)
	for _, r := range recs {
		if r.Addr == a && r.Port == 443 {
			return
		}
	}
	t.Fatalf("evicted port not re-recommendable: %v", recs)
}

func TestRecommendDeterministic(t *testing.T) {
	build := func() *Engine {
		e := New(DefaultConfig())
		for i := 0; i < 10; i++ {
			a := ip(fmt.Sprintf("10.1.%d.1", i))
			e.Observe(a, 80, entity.TCP)
			e.Observe(a, 8080, entity.TCP)
		}
		return e
	}
	a := build().Recommend(t0, 50)
	b := build().Recommend(t0, 50)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recommendation %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
