package lookup

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/netip"
	"testing"

	"censysmap/internal/entity"
	"censysmap/internal/search"
)

// TestSearchBoundedAllocation is the regression guard for the search route's
// allocations: /v2/hosts/search?limit=n fetches only the n hosts it returns,
// not the full result set, and writes each as the index document's rendered
// bytes — so with 2048 matching hosts a page costs a small constant number
// of allocations, the same at limit=25 as at limit=4. Cloning and encoding
// the hosts cost 103 and 475 allocations at those limits; cloning the full
// result set costs thousands.
func TestSearchBoundedAllocation(t *testing.T) {
	s, _ := fixture(t)
	ix := search.NewPartitioned(4)
	const hosts = 2048
	for i := 0; i < hosts; i++ {
		h := entity.NewHost(netip.MustParseAddr(fmt.Sprintf("10.0.%d.%d", i/256, i%256)))
		h.Location = &entity.Location{Country: "US"}
		h.SetService(&entity.Service{Port: 443, Transport: entity.TCP,
			Protocol: "HTTP", TLS: true, Banner: "server-banner", Verified: true})
		ix.Upsert(h)
	}
	s.AttachSearch(ix)

	measure := func(limit int) float64 {
		req := httptest.NewRequest("GET",
			fmt.Sprintf("/v2/hosts/search?q=services.protocol%%3A+HTTP&limit=%d", limit), nil)
		// Warm the query cache and render the page's documents outside the
		// measurement.
		s.ServeHTTP(httptest.NewRecorder(), req)
		return testing.AllocsPerRun(20, func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Fatalf("status = %d body=%s", rec.Code, rec.Body)
			}
		})
	}
	// Under -race sync.Pool drops items at random, so the two may differ by
	// an allocation or two.
	const budget = 64
	small, large := measure(4), measure(25)
	t.Logf("%.0f allocs/op at limit=4, %.0f at limit=25", small, large)
	if small > budget || large > budget || large > small+2 {
		t.Fatalf("limited search allocates %.0f allocs/op at limit=4 and %.0f at limit=25 over %d matching hosts; "+
			"want ≤ %d and no more at limit=25 than at limit=4", small, large, hosts, budget)
	}

	// The limit still reports the full match count.
	req := httptest.NewRequest("GET", "/v2/hosts/search?q=services.protocol%3A+HTTP&limit=4", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body searchBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Total != hosts || len(body.Hosts) != 4 {
		t.Fatalf("total=%d hosts=%d, want total=%d hosts=4", body.Total, len(body.Hosts), hosts)
	}
}
