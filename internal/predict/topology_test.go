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

// observe teaches e one host running the given ports.
func observe(e *Engine, addr string, ports ...uint16) {
	for _, p := range ports {
		e.Observe(ip(addr), p, entity.TCP)
	}
}

// ranked is the engine's current /24 order, as Recommend reads it.
func ranked(e *Engine) []netip.Addr {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rank()
}

func wantRanked(t *testing.T, e *Engine, want ...string) {
	t.Helper()
	var w []netip.Addr
	for _, s := range want {
		w = append(w, ip(s))
	}
	if got := ranked(e); !slices.Equal(got, w) {
		t.Fatalf("ranked = %v, want %v", got, w)
	}
}

func TestTopologyRankedByDensity(t *testing.T) {
	e := New(DefaultConfig())
	observe(e, "10.1.1.5", 80) // sparse /24: one host, one service
	for i := 1; i <= 3; i++ {  // dense /24 in another /16: three hosts, six services
		observe(e, fmt.Sprintf("10.2.7.%d", i), 80, 443)
	}
	observe(e, "10.2.9.5", 22) // mid /24 in the dense /16
	wantRanked(t, e, "10.2.7.0", "10.2.9.0", "10.1.1.0")
}

func TestTopologyDrillDownOrder(t *testing.T) {
	// The /16 with more services ranks all its /24s ahead of a sparser /16,
	// even when the sparse /16 has an individually denser /24.
	e := New(DefaultConfig())
	for i := 1; i <= 5; i++ {
		observe(e, fmt.Sprintf("10.8.1.%d", i), 80)
	}
	observe(e, "10.8.2.1", 80)
	// Other /16: one /24 with 3 services (denser than 10.8.2.0 but its /16
	// total of 3 < 10.8's 6).
	for i := 1; i <= 3; i++ {
		observe(e, fmt.Sprintf("10.9.1.%d", i), 80)
	}
	wantRanked(t, e, "10.8.1.0", "10.8.2.0", "10.9.1.0")
}

func TestTopologyExclusionSubtrees(t *testing.T) {
	e := New(DefaultConfig())
	observe(e, "10.5.1.1", 80, 443, 22)
	observe(e, "10.5.2.1", 80)
	observe(e, "10.6.0.1", 80, 443)
	observe(e, "10.6.0.2", 22)
	// The excluded /24 leaves the ranking but still counts toward its /16:
	// 10.5's four services rank it ahead of 10.6's three, which without
	// 10.5.1.0 would outrank 10.5's one.
	e.SetExcluded([]netip.Prefix{pfx("10.5.1.0/24")})
	wantRanked(t, e, "10.5.2.0", "10.6.0.0")
	if e.topo.Allowed(ip("10.5.1.77")) {
		t.Fatal("address inside excluded /24 allowed")
	}
	if !e.topo.Allowed(ip("10.5.2.77")) {
		t.Fatal("address outside exclusions not allowed")
	}

	// A /16 exclusion prunes every /24 under it.
	e.SetExcluded([]netip.Prefix{pfx("10.5.0.0/16")})
	wantRanked(t, e, "10.6.0.0")

	// A narrower-than-/24 exclusion keeps the /24 ranked but gates its
	// member addresses individually.
	e.SetExcluded([]netip.Prefix{pfx("10.5.2.64/26")})
	wantRanked(t, e, "10.5.1.0", "10.5.2.0", "10.6.0.0")
	if e.topo.Allowed(ip("10.5.2.70")) {
		t.Fatal("address inside /26 exclusion allowed")
	}
	if !e.topo.Allowed(ip("10.5.2.10")) {
		t.Fatal("address outside /26 exclusion blocked")
	}
}

// TestTopologyEvictService: evictions take services out of a /24's density;
// a /24 whose ports were all evicted keeps its hosts, so it still ranks and
// is still tracked, with 0 services.
func TestTopologyEvictService(t *testing.T) {
	e := New(DefaultConfig())
	observe(e, "10.1.1.1", 80, 443)
	observe(e, "10.2.1.1", 80)
	wantRanked(t, e, "10.1.1.0", "10.2.1.0")
	e.RecordEvicted(ip("10.1.1.1"), 80, entity.TCP, t0)
	e.RecordEvicted(ip("10.1.1.1"), 443, entity.TCP, t0)
	e.RecordEvicted(ip("10.1.1.1"), 443, entity.TCP, t0) // already gone: counts nothing
	wantRanked(t, e, "10.2.1.0", "10.1.1.0")
	if _, ok := e.net24Ports[ip("10.1.1.0")]; ok {
		t.Fatal("an emptied /24 kept its port counts")
	}
	st := e.ModelStats()
	if st.TrackedPrefixes != len(e.hosts24) || st.TrackedPrefixes != 2 {
		t.Fatalf("TrackedPrefixes = %d, len(hosts24) = %d, want 2", st.TrackedPrefixes, len(e.hosts24))
	}
	if st.KnownHosts != 2 {
		t.Fatalf("KnownHosts = %d, want 2", st.KnownHosts)
	}
}

// TestTopologyStateRoundTrip: no /24 table is serialized; Engine.Restore
// rebuilds the host lists and port counts from the host-port map. After
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
	if !reflect.DeepEqual(restored.hosts24, live.hosts24) {
		t.Fatalf("rebuilt /24 host lists %v, live %v", restored.hosts24, live.hosts24)
	}
	if a, b := ranked(live), ranked(restored); !slices.Equal(a, b) {
		t.Fatalf("ranked %v, restored %v", a, b)
	}
	if restored.topo.Allowed(ip("10.2.2.4")) {
		t.Fatal("restore dropped the owner's exclusions")
	}
}

// TestTopologyRankedFollowsEveryMutation asks for the ranking (so it is
// cached) before each kind of change, and requires the next answer to match
// the ranking reference_test.go recounts from the host-port map.
func TestTopologyRankedFollowsEveryMutation(t *testing.T) {
	e := New(DefaultConfig())
	check := func(step string) {
		t.Helper()
		if got, want := ranked(e), e.refRanked(); !slices.Equal(got, want) {
			t.Fatalf("after %s: ranked = %v, want %v", step, got, want)
		}
	}
	observe(e, "10.1.1.1", 80)
	check("first host")
	observe(e, "10.1.2.1", 80)
	observe(e, "10.1.2.2", 80) // hosts alone break the tie
	check("new hosts")
	observe(e, "10.1.1.1", 443, 22)
	check("new ports")
	observe(e, "10.1.1.1", 80)
	check("refresh")
	st := e.State()
	e.RecordEvicted(ip("10.1.1.1"), 443, entity.TCP, t0)
	e.RecordEvicted(ip("10.1.1.1"), 22, entity.TCP, t0)
	check("RecordEvicted")
	e.SetExcluded([]netip.Prefix{pfx("10.1.1.0/24")})
	check("SetExcluded")
	observe(e, "10.7.0.1", 80, 443, 22, 25)
	check("new /16")
	e.Restore(st)
	check("Restore")
}
