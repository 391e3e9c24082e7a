package lookup

import (
	"encoding/json"
	"net/http/httptest"
	"net/netip"
	"testing"

	"censysmap/internal/cqrs"
	"censysmap/internal/entity"
	"censysmap/internal/journal"
	"censysmap/internal/shard"
)

// fakePlacement routes a fixed partition space with per-partition overrides.
type fakePlacement struct {
	parts  int
	routes map[int]Route
	reads  map[int]*cqrs.Reader
}

func (f fakePlacement) Partitions() int { return f.parts }

func (f fakePlacement) Route(p int) Route {
	if rt, ok := f.routes[p]; ok {
		return rt
	}
	return Route{Node: "node-0"}
}

func (f fakePlacement) ReaderFor(p int) *cqrs.Reader { return f.reads[p] }

const fakeParts = 4

func TestPlacementServingNodeHeader(t *testing.T) {
	s, _ := fixture(t)
	part := shard.Of("10.0.0.1", fakeParts)
	s.SetPlacement(fakePlacement{parts: fakeParts,
		routes: map[int]Route{part: {Node: "node-2"}}})
	for _, u := range []string{"/v2/hosts/10.0.0.1", "/v2/hosts/10.0.0.1/history"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		if rec.Code != 200 {
			t.Fatalf("%s -> %d body=%s", u, rec.Code, rec.Body)
		}
		if got := rec.Header().Get(ServingNodeHeader); got != "node-2" {
			t.Fatalf("%s serving node = %q, want node-2", u, got)
		}
		if got := rec.Header().Get(DegradedHeader); got != "" {
			t.Fatalf("%s healthy placement set degraded header %q", u, got)
		}
	}
}

// TestPlacementFollowerRead: a partition routed to another reader answers
// from that reader's journal, not the service's own.
func TestPlacementFollowerRead(t *testing.T) {
	s, clk := fixture(t)
	// Build a "replica" journal whose copy of the host is distinguishable.
	rj := journal.NewStore()
	rp := cqrs.NewProcessor(cqrs.Config{}, rj)
	addr := netip.MustParseAddr("10.0.0.1")
	if err := rp.Apply(cqrs.Observation{Addr: addr, Port: 443, Transport: entity.TCP,
		Time: clk.Now(), Success: true,
		Service: &entity.Service{Port: 443, Transport: entity.TCP, Protocol: "HTTP",
			Banner: "from-replica", Verified: true}}); err != nil {
		t.Fatal(err)
	}
	rp.Drain()

	part := shard.Of(addr.String(), fakeParts)
	s.SetPlacement(fakePlacement{parts: fakeParts,
		routes: map[int]Route{part: {Node: "node-1"}},
		reads:  map[int]*cqrs.Reader{part: cqrs.NewReader(rj, nil)}})

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v2/hosts/10.0.0.1", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body)
	}
	var h entity.Host
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if got := h.Service(entity.ServiceKey{Port: 443, Transport: entity.TCP}).Banner; got != "from-replica" {
		t.Fatalf("banner = %q, want the replica reader's copy", got)
	}
}

func TestPlacementUnserved(t *testing.T) {
	s := searchFixture(t)
	part := shard.Of("10.0.0.1", fakeParts)
	s.SetPlacement(fakePlacement{parts: fakeParts,
		routes: map[int]Route{part: {Node: "node-1", Unserved: true}}})

	// Point lookups in the unserved partition answer 503.
	for _, u := range []string{"/v2/hosts/10.0.0.1", "/v2/hosts/10.0.0.1/history"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		if rec.Code != 503 {
			t.Fatalf("%s -> %d, want 503", u, rec.Code)
		}
	}
	// Fan-out queries fail whole: one missing partition poisons the answer.
	for _, u := range []string{"/v2/hosts/search?q=x", "/v2/certificates/fp1/hosts"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		if rec.Code != 503 {
			t.Fatalf("%s -> %d, want 503", u, rec.Code)
		}
		if got := rec.Header().Get(DegradedHeader); got == "" {
			t.Fatalf("%s missing degraded header", u)
		}
	}
}

func TestPlacementDegradedQuorumServesWithHeader(t *testing.T) {
	s := searchFixture(t)
	s.SetPlacement(fakePlacement{parts: fakeParts,
		routes: map[int]Route{2: {Node: "node-1", Degraded: true}}})
	// Degraded quorum still has the data — responses succeed but warn.
	for _, u := range []string{"/v2/hosts/10.0.0.1", "/v2/hosts/search?q=services.protocol:%20HTTP"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		if rec.Code != 200 {
			t.Fatalf("%s -> %d body=%s", u, rec.Code, rec.Body)
		}
		if got := rec.Header().Get(DegradedHeader); got != "degraded-quorum-partitions=2/4" {
			t.Fatalf("%s degraded header = %q", u, got)
		}
	}
}

// TestFanoutQuarantined503: storage-recovery quarantine (no placement at
// all) must fail fan-out queries too — a search over a map missing
// partitions would silently present a partial answer as complete.
func TestFanoutQuarantined503(t *testing.T) {
	s := searchFixture(t)
	s.SetDegraded([]int{1, 3}, 8)
	for _, u := range []string{"/v2/hosts/search?q=x", "/v2/certificates/fp1/hosts"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		if rec.Code != 503 {
			t.Fatalf("%s -> %d, want 503", u, rec.Code)
		}
		if got := rec.Header().Get(DegradedHeader); got != "quarantined-partitions=1,3/8" {
			t.Fatalf("%s degraded header = %q", u, got)
		}
	}
	// Clearing quarantine restores fan-out service.
	s.SetDegraded(nil, 0)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v2/certificates/fp1/hosts", nil))
	if rec.Code != 200 {
		t.Fatalf("recovered cert-hosts -> %d, want 200", rec.Code)
	}
}
