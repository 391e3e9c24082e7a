package entity

import (
	"encoding/json"
	"net/netip"
	"testing"
	"time"
)

func svc(port uint16, proto string) *Service {
	return &Service{Port: port, Transport: TCP, Protocol: proto, Verified: true,
		Attributes: map[string]string{"k": "v"}}
}

func TestServiceKeyString(t *testing.T) {
	k := ServiceKey{Port: 80, Transport: TCP}
	if k.String() != "80/tcp" {
		t.Fatalf("String() = %q", k.String())
	}
}

func TestConfigEqualIgnoresBookkeeping(t *testing.T) {
	a := svc(80, "HTTP")
	b := a.Clone()
	b.LastSeen = time.Now()
	b.SourcePoP = "fra"
	b.Method = DetectRefresh
	now := time.Now()
	b.PendingRemovalSince = &now
	if !a.ConfigEqual(b) {
		t.Fatal("bookkeeping fields affected ConfigEqual")
	}
}

func TestConfigEqualDetectsChanges(t *testing.T) {
	base := svc(80, "HTTP")
	cases := []func(*Service){
		func(s *Service) { s.Protocol = "SSH" },
		func(s *Service) { s.Port = 81 },
		func(s *Service) { s.TLS = true },
		func(s *Service) { s.Banner = "new" },
		func(s *Service) { s.CertSHA256 = "ff" },
		func(s *Service) { s.Verified = false },
		func(s *Service) { s.Attributes["k"] = "other" },
		func(s *Service) { s.Attributes["extra"] = "x" },
		func(s *Service) { delete(s.Attributes, "k") },
	}
	for i, mutate := range cases {
		m := base.Clone()
		mutate(m)
		if base.ConfigEqual(m) {
			t.Errorf("case %d: mutation not detected", i)
		}
	}
}

func TestConfigEqualNil(t *testing.T) {
	var a *Service
	if !a.ConfigEqual(nil) {
		t.Fatal("nil != nil")
	}
	if a.ConfigEqual(svc(80, "HTTP")) {
		t.Fatal("nil == non-nil")
	}
}

func TestServiceCloneIsDeep(t *testing.T) {
	a := svc(80, "HTTP")
	now := time.Now()
	a.PendingRemovalSince = &now
	b := a.Clone()
	b.Attributes["k"] = "changed"
	*b.PendingRemovalSince = now.Add(time.Hour)
	if a.Attributes["k"] != "v" {
		t.Fatal("clone shares Attributes map")
	}
	if !a.PendingRemovalSince.Equal(now) {
		t.Fatal("clone shares PendingRemovalSince")
	}
}

func TestHostServiceSlots(t *testing.T) {
	h := NewHost(netip.MustParseAddr("10.0.0.1"))
	h.SetService(svc(80, "HTTP"))
	h.SetService(svc(22, "SSH"))
	if got := h.Service(ServiceKey{80, TCP}); got == nil || got.Protocol != "HTTP" {
		t.Fatalf("Service(80/tcp) = %+v", got)
	}
	if h.Service(ServiceKey{81, TCP}) != nil {
		t.Fatal("missing slot returned non-nil")
	}
	if !h.RemoveService(ServiceKey{80, TCP}) {
		t.Fatal("RemoveService returned false for present slot")
	}
	if h.RemoveService(ServiceKey{80, TCP}) {
		t.Fatal("RemoveService returned true for absent slot")
	}
}

func TestHostSetServiceOverwritesSlot(t *testing.T) {
	h := NewHost(netip.MustParseAddr("10.0.0.1"))
	h.SetService(svc(80, "HTTP"))
	h.SetService(svc(80, "SSH"))
	if len(h.Services) != 1 {
		t.Fatalf("len(Services) = %d, want 1", len(h.Services))
	}
	if h.Service(ServiceKey{80, TCP}).Protocol != "SSH" {
		t.Fatal("slot not overwritten")
	}
}

func TestActiveServicesExcludesPending(t *testing.T) {
	h := NewHost(netip.MustParseAddr("10.0.0.1"))
	a := svc(80, "HTTP")
	b := svc(22, "SSH")
	now := time.Now()
	b.PendingRemovalSince = &now
	h.SetService(a)
	h.SetService(b)
	active := h.ActiveServices()
	if len(active) != 1 || active[0].Port != 80 {
		t.Fatalf("ActiveServices = %+v", active)
	}
	if len(h.AllServices()) != 2 {
		t.Fatal("AllServices should include pending")
	}
}

func TestServicesSorted(t *testing.T) {
	h := NewHost(netip.MustParseAddr("10.0.0.1"))
	for _, p := range []uint16{443, 22, 80, 8080} {
		h.SetService(svc(p, "X"))
	}
	u := &Service{Port: 80, Transport: UDP, Protocol: "DNS"}
	h.SetService(u)
	all := h.AllServices()
	var ports []uint16
	for _, s := range all {
		ports = append(ports, s.Port)
	}
	want := []uint16{22, 80, 80, 443, 8080}
	for i := range want {
		if ports[i] != want[i] {
			t.Fatalf("ports = %v, want %v", ports, want)
		}
	}
	// tcp sorts before udp at equal port
	if all[1].Transport != TCP || all[2].Transport != UDP {
		t.Fatalf("transport order wrong: %v %v", all[1].Transport, all[2].Transport)
	}
}

func TestHostCloneIsDeep(t *testing.T) {
	h := NewHost(netip.MustParseAddr("10.0.0.1"))
	h.SetService(svc(80, "HTTP"))
	h.Location = &Location{Country: "US"}
	h.AS = &AS{Number: 64500, Name: "TEST"}
	h.Labels = []string{"ics"}
	c := h.Clone()
	c.Service(ServiceKey{80, TCP}).Protocol = "SSH"
	c.Location.Country = "DE"
	c.AS.Number = 1
	c.Labels[0] = "cam"
	if h.Service(ServiceKey{80, TCP}).Protocol != "HTTP" ||
		h.Location.Country != "US" || h.AS.Number != 64500 || h.Labels[0] != "ics" {
		t.Fatal("Clone shares state with original")
	}
}

func TestHostJSONRoundTrip(t *testing.T) {
	h := NewHost(netip.MustParseAddr("10.1.2.3"))
	h.SetService(svc(443, "HTTP"))
	h.Service(ServiceKey{443, TCP}).TLS = true
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var got Host
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.IP != h.IP {
		t.Fatalf("IP = %v, want %v", got.IP, h.IP)
	}
	s := got.Service(ServiceKey{443, TCP})
	if s == nil || !s.TLS || s.Protocol != "HTTP" {
		t.Fatalf("service = %+v", s)
	}
}

func TestHostID(t *testing.T) {
	h := NewHost(netip.MustParseAddr("10.1.2.3"))
	if h.ID() != "10.1.2.3" {
		t.Fatalf("ID() = %q", h.ID())
	}
}

func TestSoftwareCPE(t *testing.T) {
	s := Software{Vendor: "Apache", Product: "HTTP Server", Version: "2.4.57"}
	if got := s.CPE(); got != "cpe:2.3:a:apache:http_server:2.4.57" {
		t.Fatalf("CPE() = %q", got)
	}
	h := Software{Part: "h", Vendor: "Siemens", Product: "S7-1200"}
	if got := h.CPE(); got != "cpe:2.3:h:siemens:s7-1200:*" {
		t.Fatalf("CPE() = %q", got)
	}
}

func TestWebPropertyID(t *testing.T) {
	w := &WebProperty{Name: "example.com", Port: 443}
	if w.ID() != "example.com" {
		t.Fatalf("ID() = %q", w.ID())
	}
	w2 := &WebProperty{Name: "example.com", Port: 8443}
	if w2.ID() != "example.com:8443" {
		t.Fatalf("ID() = %q", w2.ID())
	}
}

func TestWebPropertyConfigEqual(t *testing.T) {
	a := &WebProperty{Name: "x.com", Port: 443, TLS: true,
		Endpoints: []Endpoint{{Path: "/", StatusCode: 200, Title: "X"}}}
	b := &WebProperty{Name: "x.com", Port: 443, TLS: true,
		Endpoints: []Endpoint{{Path: "/", StatusCode: 200, Title: "X"}}}
	b.LastSeen = time.Now()
	if !a.ConfigEqual(b) {
		t.Fatal("bookkeeping affected equality")
	}
	b.Endpoints[0].Title = "Y"
	if a.ConfigEqual(b) {
		t.Fatal("endpoint change not detected")
	}
	b.Endpoints = nil
	if a.ConfigEqual(b) {
		t.Fatal("endpoint count change not detected")
	}
}

// The write pipeline asks Host.Service about every candidate and refresh it
// gates; the slot key is rendered into a stack buffer for it.
func TestHostServiceLookupDoesNotAllocate(t *testing.T) {
	h := NewHost(netip.MustParseAddr("10.0.0.1"))
	h.SetService(&Service{Port: 65535, Transport: UDP, Protocol: "DNS"})
	key := ServiceKey{Port: 65535, Transport: UDP}
	if key.String() != "65535/udp" || h.Service(key) == nil || h.Service(ServiceKey{Port: 80, Transport: TCP}) != nil {
		t.Fatalf("Service(%s) disagrees with SetService", key)
	}
	if n := testing.AllocsPerRun(100, func() { h.Service(key) }); n != 0 {
		t.Fatalf("Host.Service allocates %v times per lookup", n)
	}
}
