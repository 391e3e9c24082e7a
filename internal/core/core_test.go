package core

import (
	"encoding/json"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"censysmap/internal/discovery"
	"censysmap/internal/entity"
	"censysmap/internal/protocols"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// testUniverse is a small, quiet universe for pipeline tests.
func testUniverse(t *testing.T) (*simnet.Internet, *simclock.Sim) {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix("10.0.0.0/23")
	cfg.CloudBlocks = 1
	cfg.WebProperties = 15
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	clk := simclock.New()
	return simnet.New(cfg, clk), clk
}

// runFor starts m and advances its clock by d.
func runFor(m *Map, d time.Duration) {
	m.Start()
	m.clock.Advance(d)
}

func testMap(t *testing.T, net *simnet.Internet) *Map {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CloudBlocks = 1
	cfg.BackgroundPortsPerIPPerDay = 400 // speed up tail coverage in tests
	m, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInterrogationCountMatchesAttempts: RunStats.Interrogations counts every
// interrogation the pipeline launches — including the last-resort one from
// the first PoP after every PoP failed a refresh — so on a map that was
// never resumed it equals the interrogators' own attempt count.
func TestInterrogationCountMatchesAttempts(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	runFor(m, 5*24*time.Hour)
	m.Stop()
	got, want := m.Stats().Interrogations, m.InterroStats().Attempts
	if want == 0 || got != want {
		t.Fatalf("Stats().Interrogations = %d, interrogators attempted %d", got, want)
	}
}

func TestMapFindsPriorityServicesInADay(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	runFor(m, 26*time.Hour)

	got := map[[2]any]bool{}
	for _, r := range m.CurrentServices(false) {
		got[[2]any{r.Addr, r.Port}] = true
	}
	prio := map[uint16]bool{}
	for _, p := range priorityPortSet() {
		prio[p] = true
	}
	missed, total := 0, 0
	for _, s := range net.LiveServices(net.Clock().Now(), false) {
		slot := net.SlotAt(s.Addr, s.Port, s.Transport)
		// Only count stable services on priority ports: churned ones may
		// legitimately be mid-transition.
		if !prio[s.Port] || slot.Period != 0 {
			continue
		}
		total++
		if !got[[2]any{s.Addr, s.Port}] {
			missed++
		}
	}
	if total == 0 {
		t.Fatal("no stable priority services in universe")
	}
	if missed > total/50 {
		t.Fatalf("missed %d/%d stable priority services after a day", missed, total)
	}
}

func priorityPortSet() []uint16 {
	return []uint16{80, 443, 22, 21, 25, 8080, 3389, 23, 3306, 502, 102}
}

func TestServicesAreVerifiedAndEnriched(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	runFor(m, 26*time.Hour)

	records := m.CurrentServices(false)
	if len(records) == 0 {
		t.Fatal("empty dataset")
	}
	verified := 0
	for _, r := range records {
		if r.Verified {
			verified++
		}
	}
	if float64(verified)/float64(len(records)) < 0.9 {
		t.Fatalf("only %d/%d services verified", verified, len(records))
	}

	// Search works over enriched state.
	n, err := m.Count(`services.protocol: HTTP`)
	if err != nil || n == 0 {
		t.Fatalf("HTTP count = %d err=%v", n, err)
	}
	hosts, err := m.Search(`location.country: US and services.protocol: HTTP`)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts {
		if h.Location == nil || h.Location.Country != "US" {
			t.Fatalf("country filter violated: %+v", h.Location)
		}
	}
}

// TestReadPathWiring covers the read-path surface over a live pipeline: the
// lookup service's search endpoint, the query-cache counters, and the ad-hoc
// export path all answer from the same index.
func TestReadPathWiring(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	runFor(m, 26*time.Hour)

	const q = `services.protocol: HTTP`
	n, err := m.Count(q)
	if err != nil || n == 0 {
		t.Fatalf("HTTP count = %d err=%v", n, err)
	}

	// HTTP endpoint is attached and agrees with the Go API.
	rec := httptest.NewRecorder()
	m.Lookup().ServeHTTP(rec, httptest.NewRequest("GET",
		"/v2/hosts/search?q="+url.QueryEscape(q), nil))
	if rec.Code != 200 {
		t.Fatalf("search endpoint status = %d body=%s", rec.Code, rec.Body)
	}
	var body struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Total != n {
		t.Fatalf("endpoint total = %d, Count = %d", body.Total, n)
	}

	// The repeated query above must have hit the generation-stamped cache.
	if st := m.SearchCacheStats(); st.Hits == 0 {
		t.Fatalf("no query-cache hits recorded: %+v", st)
	}
}

func TestLookupReflectsPipeline(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	runFor(m, 26*time.Hour)
	recs := m.CurrentServices(false)
	if len(recs) == 0 {
		t.Fatal("no services")
	}
	h, ok := m.Host(recs[0].Addr, time.Time{})
	if !ok {
		t.Fatal("lookup missed known host")
	}
	if h.Service(entity.ServiceKey{Port: recs[0].Port, Transport: recs[0].Transport}) == nil {
		t.Fatal("service missing from looked-up host")
	}
	if h.AS == nil || h.Location == nil {
		t.Fatal("lookup result not enriched")
	}
}

func TestEvictionOfDeadService(t *testing.T) {
	net, clk := testUniverse(t)
	// Inject a stable host, then kill it and watch the 72h eviction.
	addr := netip.MustParseAddr("10.0.1.250")
	net.AddHost(&simnet.Host{Addr: addr, Country: "US", Slots: []*simnet.Slot{{
		Port: 80, Transport: entity.TCP,
		Spec:  protocols.Spec{Protocol: "HTTP", Product: "nginx", Version: "1.24.0"},
		Birth: clk.Now().Add(-time.Hour)}}})
	m := testMap(t, net)
	runFor(m, 26*time.Hour)

	if !hasService(m, addr, 80) {
		t.Fatal("injected service not found")
	}
	net.RemoveHost(addr)
	runFor(m, 24*time.Hour) // first failed refresh: pending
	if recsContain(m.CurrentServices(false), addr, 80) {
		t.Fatal("pending service still exported as active")
	}
	if !recsContain(m.CurrentServices(true), addr, 80) {
		t.Fatal("pending service vanished before the eviction window")
	}
	runFor(m, 4*24*time.Hour) // well past the 72h window
	if recsContain(m.CurrentServices(true), addr, 80) {
		t.Fatal("dead service never evicted")
	}
}

func hasService(m *Map, addr netip.Addr, port uint16) bool {
	return recsContain(m.CurrentServices(false), addr, port)
}

func recsContain(recs []ServiceRecord, addr netip.Addr, port uint16) bool {
	for _, r := range recs {
		if r.Addr == addr && r.Port == port {
			return true
		}
	}
	return false
}

func TestReinjectionRecoversReturningService(t *testing.T) {
	net, clk := testUniverse(t)
	addr := netip.MustParseAddr("10.0.1.251")
	host := &simnet.Host{Addr: addr, Country: "US", Slots: []*simnet.Slot{{
		Port: 9955, Transport: entity.TCP, // unusual port: only background/predict would refind it
		Spec:  protocols.Spec{Protocol: "HTTP", Product: "nginx"},
		Birth: clk.Now().Add(-time.Hour)}}}
	net.AddHost(host)
	m := testMap(t, net)

	// Seed the dataset directly through a user-request style scan.
	m.enqueue(pendingTask{kind: taskDirect, cand: discovery.Candidate{Addr: addr, Port: 9955,
		Transport: entity.TCP, Method: entity.DetectUserRequest, PoP: "chi"}})
	m.runBatch(clk.Now(), "user")
	if !hasService(m, addr, 9955) {
		t.Fatal("seed scan failed")
	}

	// Take it offline long enough to be evicted, then bring it back.
	net.RemoveHost(addr)
	runFor(m, 6*24*time.Hour)
	if recsContain(m.CurrentServices(true), addr, 9955) {
		t.Fatal("service not evicted while offline")
	}
	net.AddHost(host)
	runFor(m, 3*24*time.Hour)
	if !hasService(m, addr, 9955) {
		t.Fatal("re-injection did not recover the returned service")
	}
	rec := findRec(m.CurrentServices(false), addr, 9955)
	if rec.Method != entity.DetectReinjected {
		t.Fatalf("method = %q, want reinjected", rec.Method)
	}
}

func findRec(recs []ServiceRecord, addr netip.Addr, port uint16) ServiceRecord {
	for _, r := range recs {
		if r.Addr == addr && r.Port == port {
			return r
		}
	}
	return ServiceRecord{}
}

func TestPseudoHostFiltered(t *testing.T) {
	net, clk := testUniverse(t)
	addr := netip.MustParseAddr("10.0.1.252")
	net.AddHost(&simnet.Host{Addr: addr, Country: "US", Pseudo: true})
	_ = clk
	m := testMap(t, net)
	runFor(m, 30*time.Hour)
	if m.PseudoHosts() == 0 {
		t.Fatal("pseudo host not flagged")
	}
	for _, r := range m.CurrentServices(false) {
		if r.Addr == addr {
			t.Fatal("pseudo host services exported")
		}
	}
}

func TestCertPipelinePopulated(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	runFor(m, 26*time.Hour)
	// Cert->host pivoting works for some observed TLS service.
	for _, r := range m.CurrentServices(false) {
		if !r.TLS {
			continue
		}
		h, _ := m.Host(r.Addr, time.Time{})
		svc := h.Service(entity.ServiceKey{Port: r.Port, Transport: r.Transport})
		if svc == nil || svc.CertSHA256 == "" {
			continue
		}
		locs := m.CertHosts(svc.CertSHA256)
		if len(locs) == 0 {
			t.Fatalf("cert %s has no indexed locations", svc.CertSHA256[:12])
		}
		return
	}
	t.Fatal("no TLS service with a certificate in the dataset")
}

func TestWebPropertiesBuilt(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	runFor(m, 26*time.Hour)
	if len(m.WebProperties().All()) == 0 {
		t.Fatal("no web properties built")
	}
}

func TestDeltaEncodingWins(t *testing.T) {
	// On a churn-free universe, refreshes after the discovery phase must
	// journal almost nothing: stable records + delta encoding mean a
	// rescan of an unchanged Internet is nearly free in storage.
	cfg := simnet.DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix("10.0.0.0/23")
	cfg.CloudBlocks = 0
	cfg.ChurnFraction = 0
	cfg.WebProperties = 5
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	clk := simclock.New()
	net := simnet.New(cfg, clk)
	mcfg := DefaultConfig()
	mcfg.CloudBlocks = 0
	mcfg.BackgroundPortsPerIPPerDay = 0 // no tail discovery noise
	m, err := New(mcfg, net)
	if err != nil {
		t.Fatal(err)
	}
	runFor(m, 26*time.Hour) // discovery + first refreshes
	appendsAfterDiscovery := m.JournalStats().Appends
	obs0, _ := m.WriteStats()
	runFor(m, 3*24*time.Hour) // three more days of daily refresh
	obs1, noChange := m.WriteStats()
	newAppends := m.JournalStats().Appends - appendsAfterDiscovery
	refreshes := obs1 - obs0
	if refreshes == 0 {
		t.Fatal("no refresh activity")
	}
	// Nearly every post-discovery observation should be a no-change
	// refresh, and journal growth should be a tiny fraction of refresh
	// volume (snapshots aside).
	if float64(noChange)/float64(obs1) < 0.5 {
		t.Fatalf("unchanged fraction %.2f too low", float64(noChange)/float64(obs1))
	}
	if float64(newAppends) > 0.2*float64(refreshes) {
		t.Fatalf("journal grew by %d events for %d refreshes of a static universe", newAppends, refreshes)
	}
}

func TestHistoryAccumulates(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	runFor(m, 26*time.Hour)
	recs := m.CurrentServices(false)
	if len(recs) == 0 {
		t.Fatal("no services")
	}
	if len(m.History(recs[0].Addr)) == 0 {
		t.Fatal("no journaled history")
	}
}

// TestEnrichFeedsFollowTheUniverse: the feed cache lets go of a universe's
// feeds once the universe is collected, and keeps them while it lives, so a
// resume on it builds none.
func TestEnrichFeedsFollowTheUniverse(t *testing.T) {
	var dropped []weak.Pointer[simnet.Internet]
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := simnet.DefaultConfig()
		cfg.Prefix = netip.MustParsePrefix("10.0.0.0/24")
		cfg.Seed = seed
		net := simnet.New(cfg, simclock.New())
		enrichFeedsFor(net)
		dropped = append(dropped, weak.Make(net))
	}
	cached := func() int {
		enrichFeedMu.Lock()
		defer enrichFeedMu.Unlock()
		n := 0
		for key := range enrichFeedCache {
			if slices.Contains(dropped, key.net) {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); cached() > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 dropped universes still hold cached feeds", cached())
		}
		runtime.GC()
	}

	net, _ := testUniverse(t)
	m := testMap(t, net)
	runFor(m, 2*time.Hour)
	m.Stop()
	geo, asn := enrichFeedsFor(net)
	if _, err := Resume(m.cfg, net, m.Durable(), m.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if g, a := enrichFeedsFor(net); g != geo || a != asn {
		t.Fatal("a resume on a live universe rebuilt its feeds")
	}
}

func TestNewRequiresSimClock(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix("10.0.0.0/24")
	net := simnet.New(cfg, simclock.Real{})
	if _, err := New(DefaultConfig(), net); err == nil {
		t.Fatal("real clock accepted")
	}
}
