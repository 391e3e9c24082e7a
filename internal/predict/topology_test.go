package predict

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"censysmap/internal/entity"
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

// TestTopologyStateRoundTrip: the tree is not serialized; Engine.Restore
// rebuilds it, and the per-/24 port counts, from the host-port map. After
// observations, evictions and an exclusion, the rebuilt tables equal the ones
// the live engine counted, and so does the ranking once the restored engine's
// owner has set the same exclusions.
func TestTopologyStateRoundTrip(t *testing.T) {
	live := New(DefaultConfig())
	for i := 0; i < 12; i++ {
		a := ip(fmt.Sprintf("10.%d.%d.%d", 1+i%2, i%3, i+1))
		live.Observe(a, 80, entity.TCP)
		live.Observe(a, uint16(8000+i%4), entity.TCP)
	}
	live.Observe(ip("10.1.0.1"), 80, entity.TCP) // a refresh counts nothing
	live.RecordEvicted(ip("10.1.0.1"), 80, entity.TCP, t0)
	live.RecordEvicted(ip("10.1.0.1"), 8000, entity.TCP, t0) // a host with no ports left stays
	live.RecordEvicted(ip("10.2.1.2"), 8001, entity.TCP, t0)
	excluded := []netip.Prefix{pfx("10.2.2.0/24")}
	live.SetExcluded(excluded)

	blob, err := json.Marshal(live.State())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	restored := New(DefaultConfig())
	restored.SetExcluded(excluded)
	restored.Restore(st)

	if !reflect.DeepEqual(restored.net24Ports, live.net24Ports) {
		t.Fatalf("rebuilt /24 port counts %v, live %v", restored.net24Ports, live.net24Ports)
	}
	if !reflect.DeepEqual(restored.topo.roots, live.topo.roots) {
		t.Fatal("rebuilt topology densities differ from the live tree's")
	}
	if a, b := live.topo.Ranked(), restored.topo.Ranked(); !slices.Equal(a, b) {
		t.Fatalf("ranked %v, restored %v", a, b)
	}
	if restored.topo.Allowed(ip("10.2.2.4")) {
		t.Fatal("restore dropped the owner's exclusions")
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
	topo.clearCounts()
	topo.add(ip("10.1.2.0"), 2, 0)
	topo.add(ip("10.1.1.0"), 1, 1)
	check("rebuild")
}
