package predict

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"censysmap/internal/draw"
	"censysmap/internal/entity"
)

// Regression: Observe/RecordEvicted/Recommend used Addr.As4 on the raw
// address, so a stray IPv6 (or 4-mapped, or zoned) observation panicked the
// interrogation worker that carried it.
func TestIPv6ObservationsIgnoredNotPanicking(t *testing.T) {
	e := New(DefaultConfig())
	v6 := netip.MustParseAddr("2001:db8::1")
	zoned := netip.MustParseAddr("fe80::1%eth0")
	e.Observe(v6, 443, entity.TCP)
	e.Observe(zoned, 22, entity.TCP)
	e.RecordEvicted(v6, 443, entity.TCP, t0)
	if got := e.ModelStats().KnownHosts; got != 0 {
		t.Fatalf("IPv6 observations entered the model: %d hosts", got)
	}

	// 4-mapped addresses are real IPv4 observations and must unmap.
	mapped := netip.AddrFrom16(netip.MustParseAddr("10.0.0.1").As16())
	e.Observe(mapped, 80, entity.TCP)
	if got := e.ModelStats().KnownHosts; got != 1 {
		t.Fatalf("4-mapped observation not unmapped: %d hosts", got)
	}
	// And the whole cycle still recommends without panicking.
	for i := 0; i < 5; i++ {
		a := ip(fmt.Sprintf("10.0.0.%d", i+2))
		e.Observe(a, 80, entity.TCP)
		e.Observe(a, 8080, entity.TCP)
	}
	if recs := e.Recommend(t0, 100); len(recs) == 0 {
		t.Fatal("no recommendations after mixed v4/v6 observations")
	}
}

// Satellite: the cooldown book must not grow with every recommendation ever
// made — Recommend sweeps entries past cooldown, so residency is bounded by
// one Cooldown window of suggestions.
func TestSuggestedBookBounded(t *testing.T) {
	cfg := DefaultConfig()
	e := New(cfg)
	for i := 0; i < 8; i++ {
		a := ip(fmt.Sprintf("10.1.0.%d", i+1))
		e.Observe(a, 80, entity.TCP)
		e.Observe(a, 8080, entity.TCP)
	}
	// Many cooldown windows, each generating suggestions.
	var peak int
	for day := 0; day < 30; day++ {
		e.Recommend(t0.Add(time.Duration(day)*25*time.Hour), 1000)
		if n := e.ModelStats().SuggestedResident; n > peak {
			peak = n
		}
	}
	// After one more expired window, the book holds at most the final
	// window's suggestions — nothing from the 30 days before it.
	e.Recommend(t0.Add(100*24*time.Hour), 0)
	if n := e.ModelStats().SuggestedResident; n != 0 {
		t.Fatalf("suggested book holds %d entries after every cooldown expired", n)
	}
	final := e.Recommend(t0.Add(101*24*time.Hour), 1000)
	if n := e.ModelStats().SuggestedResident; n != len(final) {
		t.Fatalf("suggested book = %d, want exactly the last window's %d", n, len(final))
	}
	if peak == 0 {
		t.Fatal("test generated no suggestions")
	}
}

// The topology expansion phase proposes unobserved neighbor addresses inside
// dense /24s on the prefix's dominant ports.
func TestTopologyExpansion(t *testing.T) {
	e := New(DefaultConfig())
	for i := 1; i <= 6; i++ {
		e.Observe(ip(fmt.Sprintf("10.4.4.%d", i)), 7777, entity.TCP)
	}
	recs := e.Recommend(t0, 400)
	sawExpand := false
	for _, r := range recs {
		if r.Reason != "expand" {
			continue
		}
		sawExpand = true
		if draw.Net24(r.Addr) != ip("10.4.4.0") {
			t.Fatalf("expansion left the dense /24: %v", r)
		}
		if r.Port != 7777 {
			t.Fatalf("expansion proposed non-dominant port: %v", r)
		}
		if _, seen := e.hostPorts[r.Addr]; seen {
			t.Fatalf("expansion proposed an already-observed host: %v", r)
		}
	}
	if !sawExpand {
		t.Fatalf("no expansion targets in %d recommendations", len(recs))
	}
}

// No recommendation — refined, expanded, or reinjected — may land inside an
// exclusion subtree.
func TestExclusionNeverEmitted(t *testing.T) {
	e := New(DefaultConfig())
	for i := 1; i <= 6; i++ {
		a := ip(fmt.Sprintf("10.4.4.%d", i))
		e.Observe(a, 7777, entity.TCP)
		e.Observe(a, 80, entity.TCP)
	}
	e.RecordEvicted(ip("10.4.4.3"), 80, entity.TCP, t0)
	excl := pfx("10.4.4.0/24")
	e.SetExcluded([]netip.Prefix{excl})

	for day := 0; day < 3; day++ {
		now := t0.Add(time.Duration(day) * 25 * time.Hour)
		for _, r := range e.Recommend(now, 1000) {
			if excl.Contains(r.Addr) {
				t.Fatalf("recommendation inside excluded prefix: %v", r)
			}
		}
		for _, r := range e.Reinjections(now) {
			if excl.Contains(r.Addr) {
				t.Fatalf("reinjection inside excluded prefix: %v", r)
			}
		}
	}
}

// The stage-2 conditional must outrank a popular-but-unconditioned port: the
// model is host-conditional, not a global popularity contest.
func TestConditionalOutranksPrior(t *testing.T) {
	e := New(DefaultConfig())
	// Port 80 is globally popular (strong prior) but never co-occurs with
	// 5432; port 9090 co-occurs with 5432 on most of its hosts.
	for i := 0; i < 20; i++ {
		e.Observe(ip(fmt.Sprintf("10.1.%d.1", i)), 80, entity.TCP)
	}
	for i := 0; i < 8; i++ {
		a := ip(fmt.Sprintf("10.2.%d.1", i))
		e.Observe(a, 5432, entity.TCP)
		e.Observe(a, 9090, entity.TCP)
	}
	target := ip("10.3.0.1")
	e.Observe(target, 5432, entity.TCP)
	var forTarget []Target
	for _, r := range e.Recommend(t0, 1000) {
		if r.Addr == target {
			forTarget = append(forTarget, r)
		}
	}
	if len(forTarget) == 0 {
		t.Fatal("nothing recommended for conditioned host")
	}
	if forTarget[0].Port != 9090 || forTarget[0].Reason != "cooc" {
		t.Fatalf("top recommendation = %+v, want 9090 via cooc", forTarget[0])
	}
	for _, r := range forTarget {
		if r.Port == 80 {
			t.Fatalf("unconditioned port 80 recommended on conditional evidence: %+v", forTarget)
		}
	}
}

// State/Restore must round-trip the full model — the topology tree rebuilt
// from the host ports, the expansion cursor carried — and the restored
// engine, given the same exclusions by its owner, must recommend identically.
func TestStateRoundTripIdenticalRecommendations(t *testing.T) {
	excluded := []netip.Prefix{pfx("10.1.2.0/24")}
	build := func() *Engine {
		e := New(DefaultConfig())
		for i := 0; i < 12; i++ {
			a := ip(fmt.Sprintf("10.1.%d.%d", i%3, i+1))
			e.Observe(a, 80, entity.TCP)
			e.Observe(a, 8443, entity.TCP)
		}
		e.RecordEvicted(ip("10.1.0.1"), 8443, entity.TCP, t0)
		e.SetExcluded(excluded)
		e.Recommend(t0, 40) // advance both cursors and populate cooldowns
		return e
	}
	orig := build()
	st := orig.State()

	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded State
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	restored := New(DefaultConfig())
	restored.SetExcluded(excluded)
	restored.Restore(decoded)

	now := t0.Add(2 * time.Hour)
	a := orig.Recommend(now, 50)
	b := restored.Recommend(now, 50)
	if len(a) != len(b) {
		t.Fatalf("recommendation counts differ: %d vs %d\n a=%v\n b=%v", len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recommendation %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// The serialized state of both engines must now be bit-identical too.
	ba, _ := json.Marshal(orig.State())
	bb, _ := json.Marshal(restored.State())
	if string(ba) != string(bb) {
		t.Fatal("post-recommendation states diverge")
	}
}
