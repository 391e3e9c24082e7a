package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"censysmap/internal/cqrs"
	"censysmap/internal/entity"
	"censysmap/internal/journal"
	"censysmap/internal/lookup"
	"censysmap/internal/search"
	"censysmap/internal/simclock"
	"censysmap/internal/telemetry"
)

// fixture is a fully wired serving tier over a small seeded dataset: journal
// + processor feeding the lookup service, a 4-partition search index (which
// also answers the certificate pivot), and a telemetry registry exposed at
// /v2/metrics.
type fixture struct {
	srv  *Server
	clk  *simclock.Sim
	ix   *search.Index
	proc *cqrs.Processor
	reg  *telemetry.Registry
}

// defaultTenants cover the admission paths the suites need: an unlimited
// key, a free-tier key (burst 5, 1/s, quota 100), and a tiny custom tier
// that exhausts in a handful of requests.
func defaultTenants() []Tenant {
	return []Tenant{
		{Key: "k-int", Name: "internal-bench", Tier: "internal"},
		{Key: "k-free", Name: "free-tenant", Tier: "free"},
		{Key: "k-tiny", Name: "tiny-tenant",
			Limits: &TierLimits{RatePerSec: 1, Burst: 2, DailyQuota: 3}},
	}
}

func newFixture(t testing.TB, cfg Config) *fixture {
	t.Helper()
	clk := simclock.New()
	j := journal.NewStore()
	p := cqrs.NewProcessor(cqrs.DefaultConfig(), j)
	ix := search.NewPartitioned(4)

	f := &fixture{clk: clk, ix: ix, proc: p, reg: telemetry.New()}
	for i := 1; i <= 8; i++ {
		f.seedHost(t, fmt.Sprintf("10.0.0.%d", i), "banner-v1")
	}

	svc := lookup.New(cqrs.NewReader(j, nil), clk)
	svc.AttachSearch(ix)
	svc.AttachMetrics(f.reg, nil)

	if cfg.Tenants == nil {
		cfg.Tenants = defaultTenants()
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 8
	}
	srv, err := New(cfg, svc, ix, clk)
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachMetrics(f.reg)
	f.srv = srv
	return f
}

// seedHost applies one HTTPS observation for addr and mirrors the resulting
// state into the search index (the wiring core's Subscribe feed provides in
// the assembled system).
func (f *fixture) seedHost(t testing.TB, addr, banner string) {
	t.Helper()
	a := netip.MustParseAddr(addr)
	svc := &entity.Service{Port: 443, Transport: entity.TCP, Protocol: "HTTP",
		TLS: true, CertSHA256: "fp-" + addr, Banner: banner, Verified: true}
	if err := f.proc.Apply(cqrs.Observation{Addr: a, Port: 443, Transport: entity.TCP,
		Time: f.clk.Now(), Success: true, Service: svc.Clone()}); err != nil {
		t.Fatal(err)
	}
	f.proc.Drain()
	f.ix.Upsert(f.proc.CurrentState(addr))
}

// get issues one request with the given API key ("" = unauthenticated).
func (f *fixture) get(url, key string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	f.srv.ServeHTTP(rec, req)
	return rec
}

func TestAuthRequired(t *testing.T) {
	f := newFixture(t, Config{})
	if rec := f.get("/v2/hosts/10.0.0.1", ""); rec.Code != 401 {
		t.Fatalf("no key: status = %d", rec.Code)
	}
	if rec := f.get("/v2/hosts/10.0.0.1", "nope"); rec.Code != 401 {
		t.Fatalf("unknown key: status = %d", rec.Code)
	}
	rec := f.get("/v2/hosts/10.0.0.1", "k-int")
	if rec.Code != 200 {
		t.Fatalf("known key: status = %d body=%s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(TenantHeader); got != "internal-bench" {
		t.Fatalf("%s = %q", TenantHeader, got)
	}
}

func TestAnonymousTier(t *testing.T) {
	f := newFixture(t, Config{AnonymousTier: "free"})
	rec := f.get("/v2/hosts/10.0.0.1", "")
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := rec.Header().Get(TenantHeader); got != "anonymous" {
		t.Fatalf("%s = %q", TenantHeader, got)
	}
	// X-Censys-API-Key is an accepted alternative to the Bearer form.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v2/hosts/10.0.0.1", nil)
	req.Header.Set("X-Censys-API-Key", "k-int")
	f.srv.ServeHTTP(rec, req)
	if got := rec.Header().Get(TenantHeader); got != "internal-bench" {
		t.Fatalf("%s = %q", TenantHeader, got)
	}
}

// TestRateLimitDeterministic: with the simulated clock frozen, a burst-2
// bucket admits exactly two requests and rejects the rest with Retry-After;
// advancing the clock refills exactly rate*elapsed tokens.
func TestRateLimitDeterministic(t *testing.T) {
	f := newFixture(t, Config{})
	codes := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		rec := f.get("/v2/hosts/10.0.0.1", "k-tiny")
		codes = append(codes, rec.Code)
		if rec.Code == 429 {
			if ra := rec.Header().Get("Retry-After"); ra != "1" {
				t.Fatalf("Retry-After = %q, want 1", ra)
			}
		}
	}
	if want := []int{200, 200, 429, 429}; fmt.Sprint(codes) != fmt.Sprint(want) {
		t.Fatalf("codes = %v, want %v", codes, want)
	}
	// 2 simulated seconds at 1 token/s: exactly two more requests clear.
	f.clk.Advance(2 * time.Second)
	codes = codes[:0]
	for i := 0; i < 3; i++ {
		codes = append(codes, f.get("/v2/hosts/10.0.0.1", "k-tiny").Code)
	}
	// Third admitted request trips the 3/day quota instead of the bucket.
	if want := []int{200, 429, 429}; fmt.Sprint(codes) != fmt.Sprint(want) {
		t.Fatalf("after refill: codes = %v, want %v", codes, want)
	}
}

// TestQuotaWindowResets: the daily quota is charged per simulated UTC day
// and resets exactly at the day boundary, with Retry-After pointing at it.
func TestQuotaWindowResets(t *testing.T) {
	f := newFixture(t, Config{Tenants: []Tenant{
		{Key: "k-q", Name: "quota-tenant", Limits: &TierLimits{DailyQuota: 2}},
	}})
	if rec := f.get("/v2/hosts/10.0.0.1", "k-q"); rec.Header().Get(QuotaRemainingHeader) != "1" {
		t.Fatalf("remaining = %q, want 1", rec.Header().Get(QuotaRemainingHeader))
	}
	f.get("/v2/hosts/10.0.0.1", "k-q")
	rec := f.get("/v2/hosts/10.0.0.1", "k-q")
	if rec.Code != 429 {
		t.Fatalf("over quota: status = %d", rec.Code)
	}
	// Epoch is midnight UTC; the whole day remains.
	if ra := rec.Header().Get("Retry-After"); ra != "86400" {
		t.Fatalf("Retry-After = %q, want 86400", ra)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "quota") {
		t.Fatalf("error = %q", body.Error)
	}
	f.clk.Advance(24 * time.Hour)
	if rec := f.get("/v2/hosts/10.0.0.1", "k-q"); rec.Code != 200 {
		t.Fatalf("next day: status = %d", rec.Code)
	}
}

// TestShedOrderingUnderOverload drives the admission counter through every
// load level and asserts the strict shed order of the state machine: search
// sheds at half capacity, export at three quarters, point lookups only at
// full capacity.
func TestShedOrderingUnderOverload(t *testing.T) {
	f := newFixture(t, Config{Capacity: 8})
	adm := f.srv.adm

	type want struct {
		inflight                     int
		lookupOK, exportOK, searchOK bool
	}
	cases := []want{
		{0, true, true, true},
		{3, true, true, true},
		{4, true, true, false}, // >= cap/2: search sheds first
		{5, true, true, false},
		{6, true, false, false}, // >= 3*cap/4: export sheds next
		{7, true, false, false},
		{8, false, false, false}, // full: even point lookups shed
	}
	for _, c := range cases {
		// Occupy exactly c.inflight slots with admitted point lookups.
		for i := 0; i < c.inflight; i++ {
			if !adm.acquire(ClassLookup) {
				t.Fatalf("setup: could not occupy slot %d/%d", i, c.inflight)
			}
		}
		check := func(url string, class Class, wantOK bool) {
			rec := f.get(url, "k-int")
			if ok := rec.Code != 503; ok != wantOK {
				t.Errorf("inflight=%d %s: status=%d, want shed=%v",
					c.inflight, class, rec.Code, !wantOK)
			}
			if rec.Code == 503 {
				if rec.Header().Get(ShedClassHeader) != class.String() {
					t.Errorf("shed class header = %q, want %q",
						rec.Header().Get(ShedClassHeader), class)
				}
				if rec.Header().Get("Retry-After") == "" {
					t.Error("shed response missing Retry-After")
				}
			}
		}
		check("/v2/hosts/search?q=services.protocol%3A+HTTP", ClassSearch, c.searchOK)
		check("/v2/export/hosts?q=services.protocol%3A+HTTP", ClassExport, c.exportOK)
		check("/v2/hosts/10.0.0.1", ClassLookup, c.lookupOK)
		for i := 0; i < c.inflight; i++ {
			adm.release()
		}
	}
	if got := adm.load(); got != 0 {
		t.Fatalf("inflight leaked: %d", got)
	}

	// The shed counters surface in the /v2/metrics exposition.
	rec := f.get("/v2/metrics", "")
	text := rec.Body.String()
	for _, wantLine := range []string{
		`censys_serve_shed_total{class="search"} 5`,
		`censys_serve_shed_total{class="export"} 3`,
		`censys_serve_shed_total{class="lookup"} 1`,
	} {
		if !strings.Contains(text, wantLine) {
			t.Errorf("metrics exposition missing %q", wantLine)
		}
	}
}

// TestConditionalGet: a 200 carries a strong ETag; replaying it in
// If-None-Match answers 304 with no body until the host actually changes.
func TestConditionalGet(t *testing.T) {
	f := newFixture(t, Config{})
	rec := f.get("/v2/hosts/10.0.0.1", "k-int")
	etag := rec.Header().Get("ETag")
	if rec.Code != 200 || etag == "" {
		t.Fatalf("status=%d etag=%q", rec.Code, etag)
	}

	req := httptest.NewRequest(http.MethodGet, "/v2/hosts/10.0.0.1", nil)
	req.Header.Set("Authorization", "Bearer k-int")
	req.Header.Set("If-None-Match", etag)
	rec2 := httptest.NewRecorder()
	f.srv.ServeHTTP(rec2, req)
	if rec2.Code != 304 || rec2.Body.Len() != 0 {
		t.Fatalf("revalidation: status=%d len=%d", rec2.Code, rec2.Body.Len())
	}
	if rec2.Header().Get("ETag") != etag {
		t.Fatalf("304 ETag = %q, want %q", rec2.Header().Get("ETag"), etag)
	}

	// A change to the host (new banner journaled at a later instant)
	// invalidates the validator.
	f.clk.Advance(time.Hour)
	f.seedHost(t, "10.0.0.1", "banner-v2")
	rec3 := httptest.NewRecorder()
	f.srv.ServeHTTP(rec3, req.Clone(req.Context()))
	if rec3.Code != 200 {
		t.Fatalf("after change: status = %d", rec3.Code)
	}
	if rec3.Header().Get("ETag") == etag {
		t.Fatal("ETag unchanged after host change")
	}

	// History and search are not conditional routes: no ETag.
	if got := f.get("/v2/hosts/10.0.0.1/history", "k-int").Header().Get("ETag"); got != "" {
		t.Fatalf("history carries ETag %q", got)
	}
}

func TestEtagMatch(t *testing.T) {
	cases := []struct {
		header, etag string
		want         bool
	}{
		{``, `"abc"`, false},
		{`"abc"`, `"abc"`, true},
		{`"xyz"`, `"abc"`, false},
		{`*`, `"abc"`, true},
		{`"one", "abc" , "two"`, `"abc"`, true},
		{`W/"abc"`, `"abc"`, true},
	}
	for _, c := range cases {
		if got := etagMatch(c.header, c.etag); got != c.want {
			t.Errorf("etagMatch(%q, %q) = %v, want %v", c.header, c.etag, got, c.want)
		}
	}
}

// TestServeTelemetryDeterministic: two fresh fixtures driven through the
// same request schedule — admitted traffic, rate limits, quota exhaustion,
// shedding, conditional GETs, export pages — expose byte-identical
// censys_serve_* metric families.
func TestServeTelemetryDeterministic(t *testing.T) {
	run := func() string {
		f := newFixture(t, Config{Capacity: 8})
		// tiny tenant: burst 2 serves two, then rate limits; a refill later
		// the third admit hits the 3/day quota, the next the empty bucket.
		for i := 0; i < 4; i++ {
			f.get("/v2/hosts/10.0.0.1", "k-tiny")
		}
		f.clk.Advance(10 * time.Second)
		for i := 0; i < 3; i++ {
			f.get("/v2/hosts/10.0.0.1", "k-tiny")
		}
		rec := f.get("/v2/hosts/10.0.0.2", "k-int")
		req := httptest.NewRequest(http.MethodGet, "/v2/hosts/10.0.0.2", nil)
		req.Header.Set("Authorization", "Bearer k-int")
		req.Header.Set("If-None-Match", rec.Header().Get("ETag"))
		f.srv.ServeHTTP(httptest.NewRecorder(), req)
		f.get("/v2/export/hosts?per_page=3&q=services.tls%3A+true", "k-int")
		f.get("/v2/hosts/search?q=services.protocol%3A+HTTP", "k-int")
		for i := 0; i < 4; i++ {
			f.srv.adm.acquire(ClassLookup)
		}
		f.get("/v2/hosts/search?q=services.protocol%3A+HTTP", "k-int") // shed
		for i := 0; i < 4; i++ {
			f.srv.adm.release()
		}
		f.get("/v2/hosts/10.0.0.1", "") // 401

		var lines []string
		for _, line := range strings.Split(f.get("/v2/metrics", "").Body.String(), "\n") {
			if strings.HasPrefix(line, "censys_serve_") {
				lines = append(lines, line)
			}
		}
		if len(lines) == 0 {
			t.Fatal("no censys_serve_ families in exposition")
		}
		return strings.Join(lines, "\n")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("serve telemetry not deterministic:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	for _, want := range []string{
		`censys_serve_rate_limited_total{tenant="tiny-tenant"}`,
		`censys_serve_quota_exhausted_total{tenant="tiny-tenant"}`,
		`censys_serve_shed_total{class="search"} 1`,
		`censys_serve_conditional_total{outcome="hit"} 1`,
		`censys_serve_unauthorized_total 1`,
		`censys_serve_export_pages_total 1`,
		`censys_serve_export_rows_total 3`,
		`censys_serve_requests_total{class="lookup"}`,
	} {
		if !strings.Contains(a, want) {
			t.Errorf("serve exposition missing %q\n%s", want, a)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	clk := simclock.New()
	svc := lookup.New(cqrs.NewReader(journal.NewStore(), nil), clk)
	ix := search.NewIndex()
	cases := []Config{
		{Tenants: []Tenant{{Key: "k", Name: "a", Tier: "no-such-tier"}}},
		{Tenants: []Tenant{{Key: "k", Name: "a", Tier: "free"}, {Key: "k", Name: "b", Tier: "free"}}},
		{Tenants: []Tenant{{Key: "", Name: "a", Tier: "free"}}},
		{AnonymousTier: "bogus"},
	}
	for i, cfg := range cases {
		if _, err := New(cfg, svc, ix, clk); err == nil {
			t.Errorf("case %d: config accepted, want error", i)
		}
	}
	if _, err := New(Config{}, nil, ix, clk); err == nil {
		t.Error("nil service accepted")
	}
}
