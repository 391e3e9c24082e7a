package engines

import (
	"net/netip"
	"testing"
	"time"

	"censysmap/internal/core"
	"censysmap/internal/entity"
	"censysmap/internal/protocols"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

func smallUniverse(t *testing.T) (*simnet.Internet, *simclock.Sim) {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix("10.0.0.0/23")
	cfg.CloudBlocks = 1
	cfg.WebProperties = 10
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	clk := simclock.New()
	return simnet.New(cfg, clk), clk
}

func TestBaselineSweepFindsServices(t *testing.T) {
	net, clk := smallUniverse(t)
	b, err := NewBaseline(ShodanProfile(), net, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	clk.Advance(7 * 24 * time.Hour) // one full sweep
	recs := b.Records()
	if len(recs) == 0 {
		t.Fatal("no records after a full sweep")
	}
	for _, r := range recs {
		if r.Protocol == "" {
			t.Fatalf("unlabeled record %+v", r)
		}
	}
}

func TestKeywordEngineOverReportsICS(t *testing.T) {
	net, clk := smallUniverse(t)
	// Plant an HTTP service on the CODESYS port: keyword engines must
	// mislabel it, the handshake-verifying pipeline must not.
	addr := netip.MustParseAddr("10.0.1.200")
	net.AddHost(&simnet.Host{Addr: addr, Country: "US", Slots: []*simnet.Slot{{
		Port: 2455, Transport: entity.TCP,
		Spec:  protocols.Spec{Protocol: "HTTP", Title: "operating system panel"},
		Birth: clk.Now().Add(-time.Hour)}}})

	keyword, err := NewBaseline(ShodanProfile(), net, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer keyword.Stop()
	cfg := core.DefaultConfig()
	cfg.CloudBlocks = 1
	m, err := core.New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	verified := NewCoreAdapter("censysmap", m)

	m.Run(7 * 24 * time.Hour) // advances the shared clock: both engines scan
	m.Stop()

	if !containsRecord(keyword.QueryProtocol("CODESYS"), addr, 2455) {
		t.Fatal("keyword engine did not mislabel the HTTP service as CODESYS")
	}
	if containsRecord(verified.QueryProtocol("CODESYS"), addr, 2455) {
		t.Fatal("handshake-verified pipeline mislabeled HTTP as CODESYS")
	}
	if !containsRecord(verified.QueryProtocol("HTTP"), addr, 2455) {
		t.Fatal("handshake-verified pipeline missed the HTTP service entirely")
	}
}

func containsRecord(recs []Record, addr netip.Addr, port uint16) bool {
	for _, r := range recs {
		if r.Addr == addr && r.Port == port {
			return true
		}
	}
	return false
}

func TestDuplicatePolicyKeepsDuplicates(t *testing.T) {
	net, clk := smallUniverse(t)
	b, err := NewBaseline(FofaProfile(), net, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	clk.Advance(25 * 24 * time.Hour) // multiple sweeps
	recs := b.Records()
	unique := map[recordKey]bool{}
	for _, r := range recs {
		unique[recordKey{r.Addr, r.Port, r.Transport}] = true
	}
	if len(unique) == len(recs) {
		t.Fatal("duplicate-keeping policy produced no duplicates across sweeps")
	}
}

func TestStaleDataAccumulatesWithoutEviction(t *testing.T) {
	net, clk := smallUniverse(t)
	b, err := NewBaseline(ZoomEyeProfile(), net, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	// Two sweeps' worth of time; services churn meanwhile, but records are
	// never evicted, so some now-dead services remain in the dataset.
	clk.Advance(75 * 24 * time.Hour)
	now := clk.Now()
	stale := 0
	for _, r := range b.Records() {
		slot := net.SlotAt(r.Addr, r.Port, r.Transport)
		if slot == nil || !slot.AliveAt(net.Epoch(), now) {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("no stale records accumulated in a churning universe")
	}
}

func TestCoreAdapter(t *testing.T) {
	net, _ := smallUniverse(t)
	cfg := core.DefaultConfig()
	cfg.CloudBlocks = 1
	m, err := core.New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(26 * time.Hour)
	eng := NewCoreAdapter("censysmap", m)
	recs := eng.Records()
	if len(recs) == 0 {
		t.Fatal("adapter exposes no records")
	}
	// QueryIP agrees with Records.
	byIP := eng.QueryIP(recs[0].Addr)
	if len(byIP) == 0 {
		t.Fatal("QueryIP empty for known address")
	}
	// Protocol queries only return verified services.
	for _, r := range eng.QueryProtocol("HTTP") {
		if !r.Verified {
			t.Fatal("unverified record in protocol query")
		}
	}
}

func TestProfilesIncludeICSPorts(t *testing.T) {
	for _, p := range AllBaselineProfiles() {
		ports := map[uint16]bool{}
		for _, port := range p.Ports {
			ports[port] = true
		}
		for _, ics := range icsPorts() {
			if !ports[ics] {
				t.Fatalf("profile %s missing ICS port %d", p.Name, ics)
			}
		}
	}
}

func TestBaselineRespectsRetention(t *testing.T) {
	net, clk := smallUniverse(t)
	p := Policy{Name: "shortmem", Country: "US", SourceIPs: 8,
		Ports: []uint16{80}, SweepDuration: 24 * time.Hour,
		RetainFor: 48 * time.Hour}
	b, err := NewBaseline(p, net, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	clk.Advance(10 * 24 * time.Hour)
	now := clk.Now()
	for _, r := range b.Records() {
		if now.Sub(r.LastScanned) > 48*time.Hour {
			t.Fatalf("record older than retention: %v", now.Sub(r.LastScanned))
		}
	}
}
