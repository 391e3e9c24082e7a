package lookup

import (
	"encoding/json"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"testing"
	"time"

	"censysmap/internal/cqrs"
	"censysmap/internal/entity"
	"censysmap/internal/journal"
	"censysmap/internal/search"
	"censysmap/internal/simclock"
)

func fixture(t *testing.T) (*Service, *simclock.Sim) {
	t.Helper()
	clk := simclock.New()
	j := journal.NewStore()
	p := cqrs.NewProcessor(cqrs.Config{}, j)

	addr := netip.MustParseAddr("10.0.0.1")
	svc1 := &entity.Service{Port: 443, Transport: entity.TCP, Protocol: "HTTP",
		TLS: true, CertSHA256: "fp1", Banner: "v1", Verified: true}
	if err := p.Apply(cqrs.Observation{Addr: addr, Port: 443, Transport: entity.TCP,
		Time: clk.Now(), Success: true, Service: svc1}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(24 * time.Hour)
	svc2 := svc1.Clone()
	svc2.Banner = "v2"
	if err := p.Apply(cqrs.Observation{Addr: addr, Port: 443, Transport: entity.TCP,
		Time: clk.Now(), Success: true, Service: svc2}); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	return New(cqrs.NewReader(j, nil), clk), clk
}

func TestHostLookupCurrent(t *testing.T) {
	s, _ := fixture(t)
	h, ok := s.Host(netip.MustParseAddr("10.0.0.1"), time.Time{})
	if !ok {
		t.Fatal("not found")
	}
	if h.Service(entity.ServiceKey{Port: 443, Transport: entity.TCP}).Banner != "v2" {
		t.Fatal("current state wrong")
	}
}

func TestHostLookupAtTimestamp(t *testing.T) {
	s, _ := fixture(t)
	h, ok := s.Host(netip.MustParseAddr("10.0.0.1"), simclock.Epoch.Add(time.Hour))
	if !ok {
		t.Fatal("not found")
	}
	if h.Service(entity.ServiceKey{Port: 443, Transport: entity.TCP}).Banner != "v1" {
		t.Fatal("historical state wrong")
	}
}

func TestHTTPHostEndpoint(t *testing.T) {
	s, _ := fixture(t)
	req := httptest.NewRequest("GET", "/v2/hosts/10.0.0.1", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body)
	}
	var h entity.Host
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.IP.String() != "10.0.0.1" {
		t.Fatalf("host = %+v", h)
	}
}

func TestHTTPHostAtParam(t *testing.T) {
	s, _ := fixture(t)
	at := simclock.Epoch.Add(time.Hour).Format(time.RFC3339)
	req := httptest.NewRequest("GET", "/v2/hosts/10.0.0.1?at="+at, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var h entity.Host
	json.Unmarshal(rec.Body.Bytes(), &h)
	if h.Service(entity.ServiceKey{Port: 443, Transport: entity.TCP}).Banner != "v1" {
		t.Fatal("at= not honored")
	}
}

func TestHTTPErrors(t *testing.T) {
	s, _ := fixture(t)
	cases := []struct {
		url  string
		code int
	}{
		{"/v2/hosts/banana", 400},
		{"/v2/hosts/10.0.0.1?at=notatime", 400},
		{"/v2/hosts/10.9.9.9", 404},
		{"/v2/hosts/banana/history", 400},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", c.url, nil))
		if rec.Code != c.code {
			t.Errorf("%s -> %d, want %d", c.url, rec.Code, c.code)
		}
	}
}

func TestHistoryEndpoint(t *testing.T) {
	s, _ := fixture(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v2/hosts/10.0.0.1/history", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var entries []struct {
		Seq  uint64    `json:"seq"`
		Time time.Time `json:"time"`
		Kind string    `json:"kind"`
		Body struct {
			Service *entity.Service `json:"service"`
		} `json:"body"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Kind != cqrs.KindServiceFound ||
		entries[1].Kind != cqrs.KindServiceChanged || entries[1].Seq != 1 || entries[1].Time.IsZero() {
		t.Fatalf("entries = %+v", entries)
	}
	if svc := entries[1].Body.Service; svc == nil || svc.Port == 0 || svc.Protocol == "" {
		t.Fatalf("history body does not hold the journaled service: %s", rec.Body.Bytes())
	}
}

// TestCertHostsEndpoint: the pivot answers from the search index, and the
// route lowercases the fingerprint it is given.
func TestCertHostsEndpoint(t *testing.T) {
	s := searchFixture(t)
	for _, fp := range []string{"fp1", "FP1"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/v2/certificates/"+fp+"/hosts", nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status = %d", fp, rec.Code)
		}
		var body struct {
			Fingerprint string   `json:"fingerprint"`
			Hosts       []string `json:"hosts"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.Fingerprint != "fp1" || len(body.Hosts) != 2 ||
			body.Hosts[0] != "10.0.0.1 443/tcp" || body.Hosts[1] != "10.0.0.3 443/tcp" {
			t.Fatalf("%s: body = %+v", fp, body)
		}
	}
}

// searchFixture attaches a partitioned search index holding three hosts;
// the first and the third present certificate fp1.
func searchFixture(t *testing.T) *Service {
	t.Helper()
	s, _ := fixture(t)
	ix := search.NewPartitioned(4)
	for i, country := range []string{"US", "DE", "US"} {
		h := entity.NewHost(netip.MustParseAddr("10.0.0." + string(rune('1'+i))))
		h.Location = &entity.Location{Country: country}
		svc := &entity.Service{Port: 443, Transport: entity.TCP, Protocol: "HTTP", Verified: true}
		if country == "US" {
			svc.TLS, svc.CertSHA256 = true, "fp1"
		}
		h.SetService(svc)
		ix.Upsert(h)
	}
	s.AttachSearch(ix)
	return s
}

type searchBody struct {
	Query string        `json:"query"`
	Total int           `json:"total"`
	Hosts []entity.Host `json:"hosts"`
}

func TestSearchEndpoint(t *testing.T) {
	s := searchFixture(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET",
		"/v2/hosts/search?q="+url.QueryEscape("location.country: US"), nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body)
	}
	var body searchBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Total != 2 || len(body.Hosts) != 2 {
		t.Fatalf("body = %+v", body)
	}
	// Hosts striped over 4 partitions must come back merged in ID order.
	if body.Hosts[0].IP.String() != "10.0.0.1" || body.Hosts[1].IP.String() != "10.0.0.3" {
		t.Fatalf("order = %s, %s", body.Hosts[0].IP, body.Hosts[1].IP)
	}
}

func TestSearchEndpointLimit(t *testing.T) {
	s := searchFixture(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET",
		"/v2/hosts/search?limit=1&q="+url.QueryEscape("services.protocol: HTTP"), nil))
	var body searchBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	// total reports the full match count; hosts is truncated to the limit.
	if body.Total != 3 || len(body.Hosts) != 1 || body.Hosts[0].IP.String() != "10.0.0.1" {
		t.Fatalf("body = %+v", body)
	}
}

func TestSearchEndpointErrors(t *testing.T) {
	s := searchFixture(t)
	cases := []string{
		"/v2/hosts/search", // missing q
		"/v2/hosts/search?q=" + url.QueryEscape("location.country: US and"), // parse error
		"/v2/hosts/search?limit=-2&q=x",                                     // bad limit
		"/v2/hosts/search?limit=banana&q=x",
	}
	for _, u := range cases {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		if rec.Code != 400 {
			t.Errorf("%s -> %d, want 400", u, rec.Code)
		}
	}
}

func TestSearchEndpointAbsentWithoutAttach(t *testing.T) {
	s, _ := fixture(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v2/hosts/search?q=x", nil))
	// Without AttachSearch the path falls through to /v2/hosts/{ip} and is
	// rejected as an invalid address.
	if rec.Code != 400 {
		t.Fatalf("status = %d, want 400 (route not registered)", rec.Code)
	}
}

// TestCertHostsNilIndex: before AttachSearch there is no index to pivot
// over — CertHosts answers nil and the route is not registered.
func TestCertHostsNilIndex(t *testing.T) {
	s, _ := fixture(t)
	if got := s.CertHosts("fp1"); got != nil {
		t.Fatalf("got %v", got)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v2/certificates/fp1/hosts", nil))
	if rec.Code != 404 {
		t.Fatalf("status = %d, want 404 (route not registered)", rec.Code)
	}
}
