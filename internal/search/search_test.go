package search

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"testing"

	"censysmap/internal/entity"
)

func makeHost(ip string, country string, svcs ...*entity.Service) *entity.Host {
	h := entity.NewHost(netip.MustParseAddr(ip))
	h.Location = &entity.Location{Country: country}
	h.AS = &entity.AS{Number: 64500, Org: "Example Networks"}
	for _, s := range svcs {
		h.SetService(s)
	}
	return h
}

func svc(port uint16, proto string, attrs map[string]string) *entity.Service {
	return &entity.Service{Port: port, Transport: entity.TCP, Protocol: proto,
		Verified: true, Attributes: attrs}
}

func buildIndex(t *testing.T) *Index {
	t.Helper()
	ix := NewIndex()
	ix.Upsert(makeHost("10.0.0.1", "US",
		svc(80, "HTTP", map[string]string{"http.title": "Welcome to nginx!", "http.server": "nginx/1.24.0"}),
		svc(22, "SSH", nil)))
	ix.Upsert(makeHost("10.0.0.2", "DE",
		svc(443, "HTTP", map[string]string{"http.title": "MOVEit Transfer", "http.server": "Microsoft-IIS/10.0"})))
	h3 := makeHost("10.0.0.3", "US", svc(502, "MODBUS", map[string]string{"modbus.vendor": "Schneider Electric"}))
	h3.Labels = []string{"ics", "plc"}
	ix.Upsert(h3)
	h4 := makeHost("10.0.0.4", "CN", svc(8443, "HTTP", map[string]string{"http.title": "Login"}))
	h4.Services["8443/tcp"].TLS = true
	h4.Services["8443/tcp"].CertSHA256 = "aabbcc"
	ix.Upsert(h4)
	return ix
}

func ids(t *testing.T, ix *Index, q string) []string {
	t.Helper()
	got, err := ix.Search(q)
	if err != nil {
		t.Fatalf("Search(%q): %v", q, err)
	}
	return got
}

func wantIDs(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFieldTerm(t *testing.T) {
	ix := buildIndex(t)
	wantIDs(t, ids(t, ix, `services.protocol: MODBUS`), "10.0.0.3")
	wantIDs(t, ids(t, ix, `services.service_name="MODBUS"`), "10.0.0.3")
	wantIDs(t, ids(t, ix, `location.country: US`), "10.0.0.1", "10.0.0.3")
	wantIDs(t, ids(t, ix, `services.port: 22`), "10.0.0.1")
	wantIDs(t, ids(t, ix, `ip: 10.0.0.2`), "10.0.0.2")
}

func TestCaseInsensitiveValues(t *testing.T) {
	ix := buildIndex(t)
	wantIDs(t, ids(t, ix, `services.protocol: modbus`), "10.0.0.3")
}

func TestBooleanOperators(t *testing.T) {
	ix := buildIndex(t)
	wantIDs(t, ids(t, ix, `location.country: US and services.protocol: HTTP`), "10.0.0.1")
	wantIDs(t, ids(t, ix, `services.port: 502 or services.port: 443`), "10.0.0.2", "10.0.0.3")
	wantIDs(t, ids(t, ix, `location.country: US AND NOT services.protocol: MODBUS`), "10.0.0.1")
	// Adjacency implies AND.
	wantIDs(t, ids(t, ix, `location.country: US services.protocol: HTTP`), "10.0.0.1")
}

func TestParenGrouping(t *testing.T) {
	ix := buildIndex(t)
	wantIDs(t, ids(t, ix,
		`(location.country: US or location.country: DE) and services.protocol: HTTP`),
		"10.0.0.1", "10.0.0.2")
}

func TestPhraseSearch(t *testing.T) {
	ix := buildIndex(t)
	wantIDs(t, ids(t, ix, `"MOVEit Transfer"`), "10.0.0.2")
	wantIDs(t, ids(t, ix, `services.http.title: "Welcome to nginx"`), "10.0.0.1")
}

func TestBareTerm(t *testing.T) {
	ix := buildIndex(t)
	wantIDs(t, ids(t, ix, `modbus`), "10.0.0.3") // protocol is a text field
	wantIDs(t, ids(t, ix, `nginx`), "10.0.0.1")  // token inside server header
}

func TestPrefixWildcard(t *testing.T) {
	ix := buildIndex(t)
	wantIDs(t, ids(t, ix, `services.http.server: Microsoft*`), "10.0.0.2")
	wantIDs(t, ids(t, ix, `nginx*`), "10.0.0.1")
}

func TestNumericRange(t *testing.T) {
	ix := buildIndex(t)
	wantIDs(t, ids(t, ix, `services.port: [400 TO 600]`), "10.0.0.2", "10.0.0.3")
	wantIDs(t, ids(t, ix, `services.port: [8000 TO 9000]`), "10.0.0.4")
}

func TestTLSAndCertFields(t *testing.T) {
	ix := buildIndex(t)
	wantIDs(t, ids(t, ix, `services.tls: true`), "10.0.0.4")
	wantIDs(t, ids(t, ix, `services.cert_sha256: aabbcc`), "10.0.0.4")
}

func TestLabelSearch(t *testing.T) {
	ix := buildIndex(t)
	wantIDs(t, ids(t, ix, `labels: ics`), "10.0.0.3")
}

func TestUpsertReplacesState(t *testing.T) {
	ix := buildIndex(t)
	h := makeHost("10.0.0.1", "FR", svc(8080, "HTTP", nil))
	ix.Upsert(h)
	wantIDs(t, ids(t, ix, `services.port: 22`)) // old service gone
	wantIDs(t, ids(t, ix, `location.country: FR`), "10.0.0.1")
	if ix.Len() != 4 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestRemove(t *testing.T) {
	ix := buildIndex(t)
	ix.Remove("10.0.0.3")
	wantIDs(t, ids(t, ix, `services.protocol: MODBUS`))
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}
	ix.Remove("10.0.0.3") // idempotent
}

func TestPendingServicesInvisible(t *testing.T) {
	ix := NewIndex()
	h := makeHost("10.0.0.9", "US", svc(80, "HTTP", nil))
	now := h.LastUpdated
	h.Services["80/tcp"].PendingRemovalSince = &now
	ix.Upsert(h)
	wantIDs(t, ids(t, ix, `services.port: 80`))
}

func TestSearchHosts(t *testing.T) {
	ix := buildIndex(t)
	hosts, err := ix.SearchHosts(`labels: ics`)
	if err != nil || len(hosts) != 1 || hosts[0].IP.String() != "10.0.0.3" {
		t.Fatalf("hosts = %v err = %v", hosts, err)
	}
}

// TestHostsJSON: the rendered bytes are json.Marshal of the indexed host, in
// list order, skipping unknown IDs; a document renders once and keeps its
// bytes, and an upsert's new document renders the new state.
func TestHostsJSON(t *testing.T) {
	ix := NewPartitioned(3)
	hosts, err := buildIndex(t).SearchHosts(`ip: 10.0.0.*`)
	if err != nil || len(hosts) != 4 {
		t.Fatalf("SearchHosts = %d hosts, err %v", len(hosts), err)
	}
	for _, h := range hosts {
		ix.Upsert(h)
	}
	list := []string{"10.0.0.4", "10.9.9.9", "10.0.0.1", "10.0.0.3"}
	got, err := ix.HostsJSON(list)
	if err != nil || len(got) != 3 {
		t.Fatalf("HostsJSON = %d lines, err %v", len(got), err)
	}
	for i, id := range []string{"10.0.0.4", "10.0.0.1", "10.0.0.3"} {
		want, _ := json.Marshal(ix.Host(id))
		if !bytes.Equal(got[i], want) {
			t.Fatalf("line %d:\n got %s\nwant %s", i, got[i], want)
		}
	}
	again, _ := ix.HostsJSON(list[:1])
	if &again[0][0] != &got[0][0] {
		t.Fatal("a second read re-rendered an unchanged document")
	}
	ix.Upsert(makeHost("10.0.0.4", "FR"))
	fresh, _ := ix.HostsJSON(list[:1])
	if want, _ := json.Marshal(ix.Host("10.0.0.4")); !bytes.Equal(fresh[0], want) || bytes.Equal(fresh[0], got[0]) {
		t.Fatalf("after upsert: %s", fresh[0])
	}
}

func TestCount(t *testing.T) {
	ix := buildIndex(t)
	n, err := ix.Count(`services.protocol: HTTP`)
	if err != nil || n != 3 {
		t.Fatalf("Count = %d err=%v", n, err)
	}
}

func TestQueryErrors(t *testing.T) {
	ix := buildIndex(t)
	bad := []string{
		``, `   `, `(a: b`, `a: b)`, `field:`, `"unterminated`,
		`port: [1 TO`, `port: [a TO 5]`, `port: [1 5]`, `and`, `not`,
	}
	for _, q := range bad {
		if _, err := ix.Search(q); err == nil {
			t.Errorf("Search(%q) succeeded, want error", q)
		}
	}
}

func TestComplexInvestigationQuery(t *testing.T) {
	ix := buildIndex(t)
	// A realistic operator query: externally exposed web consoles outside
	// the US that are not TLS-protected.
	got := ids(t, ix, `services.protocol: HTTP and not location.country: US and not services.tls: true`)
	wantIDs(t, got, "10.0.0.2")
}

func TestTokenize(t *testing.T) {
	toks := Tokenize("Welcome to nginx!")
	want := map[string]bool{"welcome to nginx!": true, "welcome": true, "to": true, "nginx": true}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for _, tok := range toks {
		if !want[tok] {
			t.Fatalf("unexpected token %q", tok)
		}
	}
}
