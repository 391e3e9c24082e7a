package lookup

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/netip"
	"runtime"
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
	const hosts = 2048
	s := httpHostsFixture(t, hosts)

	measure := func(limit int) float64 {
		req := httptest.NewRequest("GET",
			fmt.Sprintf("/v2/hosts/search?q=services.protocol%%3A+HTTP&limit=%d", limit), nil)
		// Warm the query cache and render the page's documents outside the
		// measurement, and grow the recorder's buffer: the measured runs reuse
		// it, so they count the handler and not the growth a fresh recorder
		// pays per doubling of the body (two allocations each under -race).
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("status = %d body=%s", rec.Code, rec.Body)
		}
		return testing.AllocsPerRun(20, func() {
			clear(rec.Header())
			rec.Body.Reset()
			s.ServeHTTP(rec, req) // rec.Code keeps the first run's status
			if !bytes.HasPrefix(rec.Body.Bytes(), []byte(`{"hosts":[`)) {
				t.Fatalf("body=%s", rec.Body)
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

// httpHostsFixture is the lookup fixture with a 4-partition search index of n
// HTTP hosts attached, 10.0.0.0 upwards.
func httpHostsFixture(t *testing.T, n int) *Service {
	t.Helper()
	s, _ := fixture(t)
	ix := search.NewPartitioned(4)
	for i := 0; i < n; i++ {
		h := entity.NewHost(netip.MustParseAddr(fmt.Sprintf("10.0.%d.%d", i/256, i%256)))
		h.Location = &entity.Location{Country: "US"}
		h.SetService(&entity.Service{Port: 443, Transport: entity.TCP,
			Protocol: "HTTP", TLS: true, Banner: "server-banner", Verified: true})
		ix.Upsert(h)
	}
	s.AttachSearch(ix)
	return s
}

// TestSearchBoundedBytes is the byte-side guard the allocation count above
// cannot be: a warm limit=25 search allocates the same bytes whether 256 or
// 4,096 hosts match. Merging every matching ID before keeping 25 is one
// allocation at any match count, but 16 bytes per match (~61 KB more per
// request at 4,096 matches); the page itself is the same 25 hosts, 10.0.0.x
// sorting first in both indexes.
func TestSearchBoundedBytes(t *testing.T) {
	measure := func(hosts int) uint64 {
		s := httpHostsFixture(t, hosts)
		req := httptest.NewRequest("GET", "/v2/hosts/search?q=services.protocol%3A+HTTP&limit=25", nil)
		s.ServeHTTP(httptest.NewRecorder(), req) // warm the caches and renders
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Fatalf("status = %d body=%s", rec.Code, rec.Body)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	// Slack for the body buffers sync.Pool drops at random under -race (a
	// quarter of them, ~8 KB each); the merged ID list was 61 KB.
	const slack = 8 << 10
	small, large := measure(256), measure(4096)
	t.Logf("%d B/op at 256 matches, %d B/op at 4096", small, large)
	if large > small+slack {
		t.Fatalf("a limit=25 search allocates %d B/op at 4096 matches and %d B/op at 256; "+
			"want no more than %d B more", large, small, slack)
	}
}
