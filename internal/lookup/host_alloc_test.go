package lookup_test

import (
	"net/http"
	"net/http/httptest"
	"net/netip"
	"testing"

	"censysmap/internal/cqrs"
	"censysmap/internal/entity"
	"censysmap/internal/journal"
	"censysmap/internal/lookup"
	"censysmap/internal/search"
	"censysmap/internal/serve"
	"censysmap/internal/simclock"
	"censysmap/internal/telemetry"
)

// TestHostLookupBoundedAllocation is the regression guard for the host point
// read through the serving tier: while the host's journal row is unchanged a
// 200 writes the body the read side rendered once for that version, and a
// 304 compares the stored ETag — neither replays, enriches, encodes, buffers
// or hashes the host. Replaying, encoding, buffering and hashing every read
// cost 116 allocations per 200 and 115 per 304 of this four-service host;
// what is left is the request's own bookkeeping (headers, the recorder, the
// address parse), ~18 of each.
func TestHostLookupBoundedAllocation(t *testing.T) {
	clk := simclock.New()
	j := journal.NewStore()
	p := cqrs.NewProcessor(cqrs.DefaultConfig(), j)
	addr := netip.MustParseAddr("10.0.0.1")
	for _, port := range []uint16{22, 80, 443, 8443} {
		svc := &entity.Service{Port: port, Transport: entity.TCP, Protocol: "HTTP", TLS: port > 400,
			Banner: "server-banner", Verified: true, Attributes: map[string]string{"http.title": "home"}}
		if err := p.Apply(cqrs.Observation{Addr: addr, Port: port, Transport: entity.TCP,
			Time: clk.Now(), Success: true, Service: svc}); err != nil {
			t.Fatal(err)
		}
	}
	p.Drain()
	reg := telemetry.New()
	svc := lookup.New(cqrs.NewReader(j, nil), clk)
	svc.AttachMetrics(reg, nil)
	srv, err := serve.New(serve.Config{Tenants: []serve.Tenant{{Key: "k", Name: "bench", Tier: "internal"}}},
		svc, search.NewIndex(), clk)
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachMetrics(reg)

	req := httptest.NewRequest(http.MethodGet, "/v2/hosts/10.0.0.1", nil)
	req.Header.Set("Authorization", "Bearer k")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req) // renders the version, registers the metric children
	etag := rec.Header().Get("ETag")
	if rec.Code != http.StatusOK || etag == "" {
		t.Fatalf("first read: status %d ETag %q", rec.Code, etag)
	}
	revalidate := req.Clone(req.Context())
	revalidate.Header.Set("If-None-Match", etag)

	measure := func(r *http.Request, want int) float64 {
		return testing.AllocsPerRun(50, func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, r)
			if rec.Code != want {
				t.Fatalf("status %d, want %d", rec.Code, want)
			}
		})
	}
	const budget = 24
	ok, notModified := measure(req, http.StatusOK), measure(revalidate, http.StatusNotModified)
	t.Logf("%.0f allocs per 200, %.0f per 304", ok, notModified)
	if ok > budget || notModified > budget {
		t.Fatalf("an unchanged host's read allocates %.0f per 200 and %.0f per 304; want ≤ %d each",
			ok, notModified, budget)
	}
}
