package enrich

import (
	"net/netip"
	"slices"
	"strconv"
	"testing"

	"censysmap/internal/entity"
	"censysmap/internal/fingerdsl"
)

func TestGeoDBMostSpecificWins(t *testing.T) {
	g := NewGeoDB()
	g.Add(netip.MustParsePrefix("10.0.0.0/8"), "US", "")
	g.Add(netip.MustParsePrefix("10.1.0.0/16"), "DE", "Frankfurt")
	loc, ok := g.Lookup(netip.MustParseAddr("10.1.2.3"))
	if !ok || loc.Country != "DE" || loc.City != "Frankfurt" {
		t.Fatalf("loc = %+v ok=%v", loc, ok)
	}
	loc, ok = g.Lookup(netip.MustParseAddr("10.2.0.1"))
	if !ok || loc.Country != "US" {
		t.Fatalf("loc = %+v", loc)
	}
	if _, ok := g.Lookup(netip.MustParseAddr("192.168.0.1")); ok {
		t.Fatal("uncovered address resolved")
	}
}

func TestASNDBLookup(t *testing.T) {
	a := NewASNDB()
	a.Add(netip.MustParsePrefix("10.0.0.0/8"), 64500, "BIGNET", "Big Networks LLC")
	a.Add(netip.MustParsePrefix("10.5.0.0/16"), 14618, "AMAZON-AES", "Simazon Cloud")
	as, ok := a.Lookup(netip.MustParseAddr("10.5.1.1"))
	if !ok || as.Number != 14618 {
		t.Fatalf("as = %+v", as)
	}
	as, _ = a.Lookup(netip.MustParseAddr("10.200.0.1"))
	if as.Number != 64500 {
		t.Fatalf("as = %+v", as)
	}
}

func hostWith(svcs ...*entity.Service) *entity.Host {
	h := entity.NewHost(netip.MustParseAddr("10.0.0.1"))
	for _, s := range svcs {
		h.SetService(s)
	}
	return h
}

func TestFingerprintDerivesSoftwareAndLabels(t *testing.T) {
	e := New(nil, nil)
	h := hostWith(&entity.Service{Port: 8080, Transport: entity.TCP, Protocol: "HTTP",
		Verified: true,
		Attributes: map[string]string{
			"http.server": "nginx/1.24.0",
			"http.title":  "RouterOS router configuration page",
		}})
	e.Enrich(h)
	if !hasSoftware(h, "nginx") || !hasSoftware(h, "RouterOS") {
		t.Fatalf("software = %+v", h.Software)
	}
	if !hasLabel(h, "router") || !hasLabel(h, "web") {
		t.Fatalf("labels = %v", h.Labels)
	}
	if !hasVuln(h, "CVE-2018-14847") {
		t.Fatalf("vulns = %v (RouterOS CVE missing)", h.Vulns)
	}
}

func TestVersionPinnedCVE(t *testing.T) {
	e := New(nil, nil)
	vulnerable := hostWith(&entity.Service{Port: 80, Transport: entity.TCP, Protocol: "HTTP",
		Verified:   true,
		Attributes: map[string]string{"http.server": "Apache httpd/2.4.49"}})
	e.Enrich(vulnerable)
	if !hasVuln(vulnerable, "CVE-2021-41773") {
		t.Fatalf("vulns = %v", vulnerable.Vulns)
	}
	patched := hostWith(&entity.Service{Port: 80, Transport: entity.TCP, Protocol: "HTTP",
		Verified:   true,
		Attributes: map[string]string{"http.server": "Apache httpd/2.4.57"}})
	e.Enrich(patched)
	if hasVuln(patched, "CVE-2021-41773") {
		t.Fatal("patched version flagged vulnerable")
	}
}

func TestICSLabelRequiresVerified(t *testing.T) {
	e := New(nil, nil)
	verified := hostWith(&entity.Service{Port: 502, Transport: entity.TCP,
		Protocol: "MODBUS", Verified: true})
	e.Enrich(verified)
	if !hasLabel(verified, "ics") {
		t.Fatalf("labels = %v", verified.Labels)
	}
	unverified := hostWith(&entity.Service{Port: 502, Transport: entity.TCP,
		Protocol: "MODBUS", Verified: false})
	e.Enrich(unverified)
	if hasLabel(unverified, "ics") {
		t.Fatal("unverified protocol got ics label")
	}
}

func TestEnrichIdempotent(t *testing.T) {
	e := New(nil, nil)
	h := hostWith(&entity.Service{Port: 80, Transport: entity.TCP, Protocol: "HTTP",
		Verified:   true,
		Attributes: map[string]string{"http.server": "nginx/1.24.0"}})
	e.Enrich(h)
	sw1, l1, v1 := len(h.Software), len(h.Labels), len(h.Vulns)
	e.Enrich(h)
	if len(h.Software) != sw1 || len(h.Labels) != l1 || len(h.Vulns) != v1 {
		t.Fatalf("enrichment not idempotent: %d/%d/%d vs %d/%d/%d",
			len(h.Software), len(h.Labels), len(h.Vulns), sw1, l1, v1)
	}
}

func TestPendingServicesNotEnriched(t *testing.T) {
	e := New(nil, nil)
	h := hostWith(&entity.Service{Port: 80, Transport: entity.TCP, Protocol: "HTTP",
		Verified:   true,
		Attributes: map[string]string{"http.server": "nginx/1.24.0"}})
	now := h.LastUpdated
	h.Service(entity.ServiceKey{Port: 80, Transport: entity.TCP}).PendingRemovalSince = &now
	e.Enrich(h)
	if len(h.Software) != 0 {
		t.Fatalf("pending service enriched: %v", h.Software)
	}
}

func TestGeoAndASNAttached(t *testing.T) {
	g := NewGeoDB()
	g.Add(netip.MustParsePrefix("10.0.0.0/24"), "JP", "Tokyo")
	a := NewASNDB()
	a.Add(netip.MustParsePrefix("10.0.0.0/24"), 2497, "IIJ", "Internet Initiative Japan")
	e := New(g, a)
	h := hostWith()
	e.Enrich(h)
	if h.Location == nil || h.Location.Country != "JP" {
		t.Fatalf("location = %+v", h.Location)
	}
	if h.AS == nil || h.AS.Number != 2497 {
		t.Fatalf("as = %+v", h.AS)
	}
}

func TestCustomDSLFingerprint(t *testing.T) {
	e := New(nil, nil)
	e.Fingerprints = append(e.Fingerprints, Fingerprint{
		Name:   "custom-c2",
		Expr:   fingerdsl.MustParse(`(and (= protocol "HTTP") (= http.body_sha256 "deadbeef00000000"))`),
		Labels: []string{"c2"},
	})
	h := hostWith(&entity.Service{Port: 8443, Transport: entity.TCP, Protocol: "HTTP",
		Verified:   true,
		Attributes: map[string]string{"http.body_sha256": "deadbeef00000000"}})
	e.Enrich(h)
	if !hasLabel(h, "c2") {
		t.Fatalf("labels = %v", h.Labels)
	}
}

func TestCVERuleMatching(t *testing.T) {
	r := CVERule{ID: "X", Vendor: "V", Product: "P", Versions: []string{"1", "2"}}
	if !r.Matches(entity.Software{Vendor: "v", Product: "p", Version: "1"}) {
		t.Fatal("case-insensitive match failed")
	}
	if r.Matches(entity.Software{Vendor: "V", Product: "P", Version: "3"}) {
		t.Fatal("wrong version matched")
	}
	any := CVERule{ID: "Y", Vendor: "V", Product: "P"}
	if !any.Matches(entity.Software{Vendor: "V", Product: "P", Version: "9.9"}) {
		t.Fatal("any-version rule failed")
	}
}

// mapContext is a service's DSL fields written out as a map: the oracle of
// serviceContext.
func mapContext(svc *entity.Service) fingerdsl.MapContext {
	ctx := fingerdsl.MapContext{
		"port":     strconv.Itoa(int(svc.Port)),
		"protocol": svc.Protocol,
		"banner":   svc.Banner,
	}
	if svc.TLS {
		ctx["tls"] = "true"
	}
	for k, v := range svc.Attributes {
		ctx[k] = v
	}
	return ctx
}

// shadowCorpus covers every builtin fingerprint's field, the intrinsic
// fields, and attributes that shadow them.
func shadowCorpus() []*entity.Service {
	return []*entity.Service{
		{Port: 80, Transport: entity.TCP, Protocol: "HTTP", Verified: true,
			Attributes: map[string]string{"http.server": "Apache httpd/2.4.49", "http.title": "Water treatment HMI"}},
		{Port: 443, Transport: entity.TCP, Protocol: "HTTP", TLS: true, Verified: true,
			Attributes: map[string]string{"http.title": "MOVEit Transfer", "http.www_authenticate": "Basic realm=FortiGate"}},
		{Port: 22, Transport: entity.TCP, Protocol: "SSH", Banner: "SSH-2.0-OpenSSH_7.4",
			Attributes: map[string]string{"ssh.version": "SSH-2.0-OpenSSH_7.4"}},
		{Port: 6379, Transport: entity.TCP, Protocol: "REDIS", Attributes: map[string]string{"redis.version": "7.0"}},
		{Port: 10001, Transport: entity.TCP, Protocol: "HTTP", Banner: "intrinsic banner",
			Attributes: map[string]string{"protocol": "ATG", "port": "81", "banner": "attr banner", "tls": "no"}},
		{Port: 502, Transport: entity.TCP, Protocol: "MODBUS", Verified: true,
			Attributes: map[string]string{"modbus.vendor": "Schneider Electric"}},
		{Port: 8080, Transport: entity.TCP, Protocol: "HTTP", Verified: true,
			Attributes: map[string]string{"http.title": "RouterOS router configuration page", "http.server": "nginx/1.24.0"}},
		{Port: 53, Transport: entity.UDP, Protocol: "DNS", Attributes: map[string]string{"dns.version_bind": "dnsmasq-2.80"}},
	}
}

// TestServiceContextShadowing: attributes named port, banner, protocol and
// tls win over the intrinsic fields; every field and every builtin
// fingerprint reads the same through serviceContext as through mapContext;
// and Enrich's output on the corpus is pinned.
func TestServiceContextShadowing(t *testing.T) {
	shadowed := serviceContext{shadowCorpus()[4]}
	for name, want := range map[string]string{"port": "81", "banner": "attr banner", "tls": "no", "protocol": "ATG"} {
		if got, ok := shadowed.Field(name); !ok || got != want {
			t.Errorf("Field(%q) = %q, %v; want the attribute %q", name, got, ok, want)
		}
	}
	e := New(nil, nil)
	h := hostWith()
	for _, svc := range shadowCorpus() {
		h.SetService(svc)
		ctx, ref := serviceContext{svc}, mapContext(svc)
		names := []string{"port", "protocol", "banner", "tls", "absent", "http.title"}
		for k := range svc.Attributes {
			names = append(names, k)
		}
		for _, n := range names {
			got, gotOK := ctx.Field(n)
			want, wantOK := ref.Field(n)
			if got != want || gotOK != wantOK {
				t.Errorf("%d/%s Field(%q) = %q, %v; map context %q, %v", svc.Port, svc.Transport, n, got, gotOK, want, wantOK)
			}
		}
		for i := range e.Fingerprints {
			fp := &e.Fingerprints[i]
			if fp.matches(ctx) != fp.matches(ref) {
				t.Errorf("%d/%s: fingerprint %s disagrees with the map context", svc.Port, svc.Transport, fp.Name)
			}
		}
	}
	e.Enrich(h)
	wantSW := []entity.Software{{Vendor: "OpenBSD", Product: "OpenSSH", Version: "7.4", Part: "a"},
		{Vendor: "OpenBSD", Product: "OpenSSH", Part: "a"}, {Vendor: "Thekelleys", Product: "dnsmasq", Part: "a"},
		{Vendor: "Apache", Product: "Apache httpd", Part: "a"}, {Vendor: "Apache", Product: "Apache httpd", Version: "2.4.49", Part: "a"},
		{Vendor: "Progress", Product: "MOVEit Transfer", Version: "2023.0.1", Part: "a"}, {Vendor: "Fortinet", Product: "FortiGate", Part: "h"},
		{Vendor: "Schneider Electric", Product: "Modicon", Part: "h"}, {Vendor: "Redis", Product: "Redis", Part: "a"},
		{Vendor: "F5", Product: "nginx", Part: "a"}, {Vendor: "MikroTik", Product: "RouterOS", Part: "o"},
		{Vendor: "Veeder-Root", Product: "TLS-350", Part: "h"}}
	wantLabels := []string{"database", "dns", "exposed-database", "file-transfer", "fuel-monitoring", "hmi", "ics", "iot",
		"network-device", "plc", "remote-access", "router", "vpn", "water-utility", "web"}
	wantVulns := []string{"CVE-2018-14847", "CVE-2018-15473", "CVE-2021-41773", "CVE-2023-34362"}
	if !slices.Equal(h.Software, wantSW) || !slices.Equal(h.Labels, wantLabels) || !slices.Equal(h.Vulns, wantVulns) {
		t.Fatalf("Enrich on the corpus:\n software %+v\n labels %q\n vulns %q", h.Software, h.Labels, h.Vulns)
	}
}

func hasSoftware(h *entity.Host, product string) bool {
	for _, s := range h.Software {
		if s.Product == product {
			return true
		}
	}
	return false
}

func hasLabel(h *entity.Host, label string) bool {
	for _, l := range h.Labels {
		if l == label {
			return true
		}
	}
	return false
}

func hasVuln(h *entity.Host, id string) bool {
	for _, v := range h.Vulns {
		if v == id {
			return true
		}
	}
	return false
}
