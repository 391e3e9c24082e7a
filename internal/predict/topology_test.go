package predict

import (
	"net/netip"
	"slices"
	"testing"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestTopologyRankedByDensity(t *testing.T) {
	topo := NewTopology()
	// Sparse /24: one host, one service.
	topo.ObserveHost(ip("10.1.1.0"))
	topo.ObserveService(ip("10.1.1.0"))
	// Dense /24 in another /16: three hosts, six services.
	for i := 0; i < 3; i++ {
		topo.ObserveHost(ip("10.2.7.0"))
		topo.ObserveService(ip("10.2.7.0"))
		topo.ObserveService(ip("10.2.7.0"))
	}
	// Mid /24 in the dense /16.
	topo.ObserveHost(ip("10.2.9.0"))
	topo.ObserveService(ip("10.2.9.0"))

	ranked := topo.Ranked()
	want := []netip.Addr{ip("10.2.7.0"), ip("10.2.9.0"), ip("10.1.1.0")}
	if len(ranked) != len(want) {
		t.Fatalf("ranked = %v, want %v", ranked, want)
	}
	for i := range want {
		if ranked[i] != want[i] {
			t.Fatalf("ranked[%d] = %v, want %v (full: %v)", i, ranked[i], want[i], ranked)
		}
	}
}

func TestTopologyDrillDownOrder(t *testing.T) {
	// The /16 with more services ranks all its /24s ahead of a sparser /16,
	// even when the sparse /16 has an individually denser /24.
	topo := NewTopology()
	for i := 0; i < 5; i++ {
		topo.ObserveHost(ip("10.8.1.0"))
		topo.ObserveService(ip("10.8.1.0"))
	}
	topo.ObserveHost(ip("10.8.2.0"))
	topo.ObserveService(ip("10.8.2.0"))
	// Other /16: one /24 with 3 services (denser than 10.8.2.0 but its /16
	// total of 3 < 10.8's 6).
	for i := 0; i < 3; i++ {
		topo.ObserveHost(ip("10.9.1.0"))
		topo.ObserveService(ip("10.9.1.0"))
	}
	ranked := topo.Ranked()
	want := []netip.Addr{ip("10.8.1.0"), ip("10.8.2.0"), ip("10.9.1.0")}
	for i := range want {
		if ranked[i] != want[i] {
			t.Fatalf("ranked = %v, want %v", ranked, want)
		}
	}
}

func TestTopologyExclusionSubtrees(t *testing.T) {
	topo := NewTopology()
	topo.ObserveHost(ip("10.5.1.0"))
	topo.ObserveService(ip("10.5.1.0"))
	topo.ObserveHost(ip("10.5.2.0"))
	topo.ObserveService(ip("10.5.2.0"))
	topo.SetExcluded([]netip.Prefix{pfx("10.5.1.0/24")})

	for _, base := range topo.Ranked() {
		if base == ip("10.5.1.0") {
			t.Fatal("excluded /24 still ranked")
		}
	}
	if topo.Allowed(ip("10.5.1.77")) {
		t.Fatal("address inside excluded /24 allowed")
	}
	if !topo.Allowed(ip("10.5.2.77")) {
		t.Fatal("address outside exclusions not allowed")
	}

	// A narrower-than-/24 exclusion keeps the /24 ranked but gates its
	// member addresses individually.
	topo.SetExcluded([]netip.Prefix{pfx("10.5.2.64/26")})
	found := false
	for _, base := range topo.Ranked() {
		if base == ip("10.5.2.0") {
			found = true
		}
	}
	if !found {
		t.Fatal("/24 with a narrower exclusion dropped from ranking")
	}
	if topo.Allowed(ip("10.5.2.70")) {
		t.Fatal("address inside /26 exclusion allowed")
	}
	if !topo.Allowed(ip("10.5.2.10")) {
		t.Fatal("address outside /26 exclusion blocked")
	}
}

func TestTopologyEvictService(t *testing.T) {
	topo := NewTopology()
	topo.ObserveHost(ip("10.1.1.0"))
	topo.ObserveService(ip("10.1.1.0"))
	topo.ObserveService(ip("10.1.1.0"))
	topo.ObserveHost(ip("10.2.1.0"))
	topo.ObserveService(ip("10.2.1.0"))
	topo.EvictService(ip("10.1.1.0"))
	topo.EvictService(ip("10.1.1.0"))
	// 10.1.1.0 now has 0 services vs 10.2.1.0's 1: ranking flips.
	ranked := topo.Ranked()
	if ranked[0] != ip("10.2.1.0") {
		t.Fatalf("ranked = %v, want 10.2.1.0 first after evictions", ranked)
	}
}

func TestTopologyStateRoundTrip(t *testing.T) {
	topo := NewTopology()
	for i := 0; i < 3; i++ {
		topo.ObserveHost(ip("10.2.7.0"))
		topo.ObserveService(ip("10.2.7.0"))
	}
	topo.ObserveHost(ip("10.1.1.0"))
	topo.ObserveService(ip("10.1.1.0"))
	topo.SetExcluded([]netip.Prefix{pfx("10.9.0.0/16")})

	st := topo.State()
	restored := NewTopology()
	restored.Restore(st)

	a, b := topo.Ranked(), restored.Ranked()
	if len(a) != len(b) {
		t.Fatalf("ranked lengths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ranked[%d] differs: %v vs %v", i, a[i], b[i])
		}
	}
	if restored.Allowed(ip("10.9.3.4")) {
		t.Fatal("exclusions lost in round trip")
	}
	if restored.Tracked24s() != topo.Tracked24s() {
		t.Fatal("leaf count differs after round trip")
	}
}

// TestTopologyRankedFollowsEveryMutation asks for the ranking (so it is
// cached) before each kind of change, and requires the next answer to match
// the uncached ranking in reference_test.go.
func TestTopologyRankedFollowsEveryMutation(t *testing.T) {
	topo := NewTopology()
	check := func(step string) {
		t.Helper()
		if got, want := topo.Ranked(), topo.refRanked(); !slices.Equal(got, want) {
			t.Fatalf("after %s: Ranked = %v, want %v", step, got, want)
		}
	}
	topo.ObserveHost(ip("10.1.1.0"))
	check("first host")
	topo.ObserveHost(ip("10.1.2.0"))
	topo.ObserveHost(ip("10.1.2.0")) // hosts alone break the tie
	check("ObserveHost")
	topo.ObserveService(ip("10.1.1.0"))
	check("ObserveService")
	older := topo.State()
	topo.ObserveService(ip("10.1.2.0"))
	topo.ObserveService(ip("10.1.2.0"))
	check("second ObserveService")
	topo.EvictService(ip("10.1.2.0"))
	topo.EvictService(ip("10.1.2.0"))
	check("EvictService")
	topo.SetExcluded([]netip.Prefix{pfx("10.1.1.0/24")})
	check("SetExcluded")
	topo.ObserveHost(ip("10.7.0.0"))
	topo.ObserveService(ip("10.7.0.0"))
	check("new /16")
	topo.Restore(older)
	check("Restore")
}
