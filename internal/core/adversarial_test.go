package core

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"censysmap/internal/cqrs"
	"censysmap/internal/discovery"
	"censysmap/internal/entity"
	"censysmap/internal/journal"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// Satellite tests for the adversarial scenario pack: interrogation-pool
// liveness at 100% tarpit density (run under -race by `make adversarial`),
// drip-tarpit pseudo filtering, and honeypot-farm uniformity flagging.

// tarpitCoreUniverse is a universe where every host is a tarpit.
func tarpitCoreUniverse(t *testing.T, dripRate float64) (*simnet.Internet, *simclock.Sim) {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix("10.0.0.0/23")
	cfg.CloudBlocks = 1
	cfg.WebProperties = 0
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	cfg.PseudoHostRate = 0
	cfg.Adversary = simnet.AdversaryConfig{
		Seed:           21,
		TarpitRate:     1.0,
		TarpitDripRate: dripRate,
	}
	clk := simclock.New()
	return simnet.New(cfg, clk), clk
}

// TestTarpitLivenessAllStall drives the full pipeline against a universe
// where every endpoint accepts and then stalls forever. The worker pool must
// stay live (ticks complete in wall-clock time, no goroutine leak), and the
// budget accounting must be exact: every TCP interrogation attempt exhausts
// its total budget exactly once.
func TestTarpitLivenessAllStall(t *testing.T) {
	baseline := runtime.NumGoroutine()

	net, _ := tarpitCoreUniverse(t, 0)
	cfg := DefaultConfig()
	cfg.CloudBlocks = 1
	cfg.DisablePrediction = true // no 65K seed scan; keep the run focused
	cfg.InterroBudget.Total = 20 * time.Second
	m, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		runFor(m, 8*time.Hour)
		m.Stop()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("pipeline wedged against 100% stall tarpits")
	}

	ds := m.InterroDeadlineStats()
	is := m.InterroStats()
	if is.Attempts == 0 {
		t.Fatal("no interrogations launched")
	}
	// Exactness: every attempt is a TCP candidate against a stalling tarpit
	// (UDP probes into tarpits drop, nothing ever succeeds, so there are no
	// refreshes), and each one exhausts Total exactly once.
	if ds.TotalExhausted != is.Attempts {
		t.Fatalf("TotalExhausted = %d, want exactly Attempts = %d", ds.TotalExhausted, is.Attempts)
	}
	if ds.VirtualMillis == 0 {
		t.Fatal("no virtual time charged")
	}
	if got := len(m.CurrentServices(true)); got != 0 {
		t.Fatalf("stall tarpits produced %d dataset records", got)
	}

	// No wedged workers: goroutine count settles back to (about) baseline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDripTarpitsGetPseudoFiltered: dripping tarpits answer every port with
// junk, so they accumulate UNKNOWN records until the pseudo-service filter
// flags the host and purges it.
func TestDripTarpitsGetPseudoFiltered(t *testing.T) {
	net, _ := tarpitCoreUniverse(t, 1.0)
	cfg := DefaultConfig()
	cfg.CloudBlocks = 1
	cfg.DisablePrediction = true
	cfg.PseudoServiceThreshold = 5
	cfg.InterroBudget.Total = 20 * time.Second
	m, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	runFor(m, 12*time.Hour)
	m.Stop()

	if m.PseudoHosts() == 0 {
		t.Fatal("no drip tarpit was pseudo-flagged")
	}
	for _, r := range m.CurrentServices(false) {
		if r.Protocol != "UNKNOWN" {
			t.Fatalf("drip tarpit produced a verified %s record at %v:%d", r.Protocol, r.Addr, r.Port)
		}
	}
}

// TestHoneypotFarmsGetFlagged: whole-/24 honeypot farms present verified ICS
// services with byte-identical fingerprints; the uniformity detector must
// flag them and keep them out of the dataset and the search index.
func TestHoneypotFarmsGetFlagged(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix("10.0.0.0/22")
	cfg.CloudBlocks = 1
	cfg.WebProperties = 0
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	cfg.Adversary = simnet.AdversaryConfig{
		Seed:          9,
		HoneypotFarms: 2,
	}
	clk := simclock.New()
	net := simnet.New(cfg, clk)

	mcfg := DefaultConfig()
	mcfg.CloudBlocks = 1
	mcfg.DisablePrediction = true
	mcfg.HoneypotUniformityThreshold = 8
	m, err := New(mcfg, net)
	if err != nil {
		t.Fatal(err)
	}
	runFor(m, 26*time.Hour)
	m.Stop()

	flagged := m.HoneypotHosts()
	if len(flagged) < 8 {
		t.Fatalf("only %d honeypot hosts flagged", len(flagged))
	}
	if m.Stats().HoneypotsFlagged != uint64(len(flagged)) {
		t.Fatalf("HoneypotsFlagged = %d but %d hosts flagged", m.Stats().HoneypotsFlagged, len(flagged))
	}
	// Every flagged address really is a honeypot (no benign host caught).
	for _, a := range flagged {
		if h := net.HostAt(a); h == nil || !h.Honeypot {
			t.Fatalf("flagged %v which is not a honeypot", a)
		}
	}
	// The dataset carries no record for any flagged host.
	isFlagged := make(map[netip.Addr]bool, len(flagged))
	for _, a := range flagged {
		isFlagged[a] = true
	}
	for _, r := range m.CurrentServices(true) {
		if isFlagged[r.Addr] {
			t.Fatalf("dataset still exports flagged honeypot %v:%d", r.Addr, r.Port)
		}
	}
	// And the search index no longer surfaces them.
	for _, a := range flagged[:4] {
		if _, ok := m.HostCurrent(a); ok {
			t.Fatalf("HostCurrent still serves flagged honeypot %v", a)
		}
	}
}

// TestHoneypotChurnIsNotAFarm: the farm detector counts what the write side
// holds, not what it ever saw. Twenty hosts of one farm come up one after
// another, each for 18 hours, so at most four of them are in the write side
// at once (three up, one pending eviction): no group reaches the threshold,
// however many members were ever seen. Then eight come up together and are
// flagged, and a ninth found later is flagged on sight.
func TestHoneypotChurnIsNotAFarm(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix("10.0.0.0/22")
	cfg.CloudBlocks = 1
	cfg.WebProperties = 0
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	cfg.Adversary = simnet.AdversaryConfig{Seed: 9, HoneypotFarms: 1}
	clk := simclock.New()
	net := simnet.New(cfg, clk)
	// Take the farm off the network; its hosts come up on the schedule below.
	var farm []*simnet.Host
	for _, a := range slices.Clone(net.Addrs()) {
		if h := net.HostAt(a); h.Honeypot {
			farm = append(farm, h)
			net.RemoveHost(a)
		}
	}
	const churned, threshold = 20, 8
	if len(farm) < churned+threshold+1 {
		t.Fatalf("farm of %d hosts", len(farm))
	}

	mcfg := DefaultConfig()
	mcfg.CloudBlocks = 1
	mcfg.DisablePrediction = true
	mcfg.HoneypotUniformityThreshold = threshold
	mcfg.EvictAfter = 2 * time.Hour
	m, err := New(mcfg, net)
	if err != nil {
		t.Fatal(err)
	}
	// step interrogates hosts directly, up or not, and advances an hour.
	step := func(hosts []*simnet.Host) {
		now := clk.Now()
		for _, h := range hosts {
			port := h.Slots[0].Port
			m.enqueue(pendingTask{kind: taskDirect, cand: discovery.Candidate{Addr: h.Addr, Port: port,
				Transport: entity.TCP, Method: entity.DetectUserRequest, PoP: m.pops[0].Name, Time: now}})
		}
		m.runBatch(now, "churn")
		m.processor.Drain()
		clk.Advance(time.Hour)
	}

	// Host i is up during hours [6i, 6i+18).
	for hour := 0; hour < 6*churned+24; hour++ {
		for i, h := range farm[:churned] {
			switch hour {
			case 6 * i:
				net.AddHost(h)
			case 6*i + 18:
				net.RemoveHost(h.Addr)
			}
		}
		step(farm[:min(hour/6+1, churned)])
	}
	for _, h := range farm[:churned] {
		if len(m.History(h.Addr)) == 0 {
			t.Fatalf("churned host %v never entered the dataset; the case is vacuous", h.Addr)
		}
	}
	if got := m.HoneypotHosts(); len(got) != 0 {
		t.Fatalf("%d churned hosts flagged, never more than 4 held at once: %v", len(got), got)
	}

	together := farm[churned : churned+threshold]
	for _, h := range together {
		net.AddHost(h)
	}
	step(together)
	var want []netip.Addr
	for _, h := range together {
		want = append(want, h.Addr)
	}
	if got := m.HoneypotHosts(); !slices.Equal(got, want) {
		t.Fatalf("eight held at once: flagged %v, want %v", got, want)
	}
	late := farm[churned+threshold]
	net.AddHost(late)
	step([]*simnet.Host{late})
	if got := m.HoneypotHosts(); len(got) != threshold+1 || !slices.Contains(got, late.Addr) {
		t.Fatalf("a member found after its farm was flagged: flagged %v, want it too", got)
	}
}

// lossyConnects drops every interrogation connection to addr while on.
type lossyConnects struct {
	addr    netip.Addr
	on      atomic.Bool
	dropped atomic.Uint64
}

func (l *lossyConnects) Drop(_ simnet.Scanner, addr netip.Addr, op simnet.Op, _ uint64, _ time.Time) simnet.Cause {
	if l.on.Load() && op == simnet.OpConnect && addr == l.addr {
		l.dropped.Add(1)
		return simnet.CauseFaultLoss
	}
	return simnet.Delivered
}

// TestPseudoRecheckAfterLostConnects: a pseudo-host whose check at the
// threshold loses every connect to injected loss is not exempt for good: the
// check runs again at twice the threshold, and flags it.
func TestPseudoRecheckAfterLostConnects(t *testing.T) {
	net, clk := testUniverse(t)
	addr := netip.MustParseAddr("10.0.1.252")
	net.AddHost(&simnet.Host{Addr: addr, Country: "US", Pseudo: true})
	loss := &lossyConnects{addr: addr}
	net.SetFaultInjector(loss)
	m := testMap(t, net)
	threshold := m.cfg.PseudoServiceThreshold

	// found applies a successful interrogation of port, a slot the host did
	// not hold, the way a worker does.
	found := func(port uint16) {
		now := clk.Now()
		obs := cqrs.Observation{Addr: addr, Port: port, Transport: entity.TCP, Time: now,
			PoP: m.pops[0].Name, Method: entity.DetectUserRequest, Success: true,
			Service: &entity.Service{Port: port, Transport: entity.TCP, Protocol: "HTTP", Verified: true}}
		c := discovery.Candidate{Addr: addr, Port: port, Transport: entity.TCP, PoP: m.pops[0].Name, Time: now}
		m.apply(m.shardFor(addr), addr.String(), obs, c, now)
	}
	held := func() int {
		_, _, n := m.processor.LastSeen(addr.String(), entity.ServiceKey{})
		return n
	}
	for port := uint16(1); port < uint16(threshold); port++ {
		found(port)
	}
	loss.on.Store(true)
	found(uint16(threshold))
	loss.on.Store(false)
	if got := loss.dropped.Load(); got != pseudoCheckConnects {
		t.Fatalf("the check at %d services lost %d connects, want all %d", threshold, got, pseudoCheckConnects)
	}
	if m.PseudoHosts() != 0 || held() != threshold {
		t.Fatalf("after a check that lost its connects: %d flagged, %d services held", m.PseudoHosts(), held())
	}
	for port := uint16(threshold + 1); port < uint16(2*threshold); port++ {
		found(port)
	}
	if m.PseudoHosts() != 0 {
		t.Fatalf("flagged at %d services, between checks", held())
	}
	found(uint16(2 * threshold))
	if m.PseudoHosts() != 1 || held() != 0 {
		t.Fatalf("at twice the threshold: %d flagged, %d services held; want the host flagged and retired",
			m.PseudoHosts(), held())
	}
}

// TestFlaggedHostOnNoReadSurface: whatever takes a host out of the dataset —
// the pseudo-service filter, the honeypot-farm detector, an operator opt-out
// — takes it off every read surface, because they all read what the write
// side materializes and the host's services were retired from it. What stays
// is history: the finds, then one service_removed per slot dated at the flag,
// and the time-travel view from before it.
func TestFlaggedHostOnNoReadSurface(t *testing.T) {
	ncfg := simnet.DefaultConfig()
	ncfg.Prefix = netip.MustParsePrefix("10.0.0.0/22")
	ncfg.PseudoHostRate = 0.02
	ncfg.CloudBlocks = 1
	ncfg.WebProperties = 0
	ncfg.BaseLoss = 0
	ncfg.OutageRate = 0
	ncfg.GeoblockRate = 0
	ncfg.Adversary = simnet.AdversaryConfig{Seed: 9, HoneypotFarms: 1}
	net := simnet.New(ncfg, simclock.New())

	cfg := DefaultConfig()
	cfg.CloudBlocks = 1
	// Thresholds (and no all-port seed scan) such that flags land ticks after
	// a host's first find, so there is a before to time-travel to.
	cfg.DisablePrediction = true
	cfg.PseudoServiceThreshold = 12
	cfg.HoneypotUniformityThreshold = 60
	m, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	runFor(m, 48*time.Hour)

	// flaggedAt is when a host's journal ends in a removal, or the zero time.
	flaggedAt := func(addr netip.Addr) time.Time {
		evs := m.History(addr)
		for len(evs) > 0 && evs[len(evs)-1].Kind == journal.SnapshotKind {
			evs = evs[:len(evs)-1]
		}
		if len(evs) == 0 || evs[len(evs)-1].Kind != cqrs.KindServiceRemoved {
			return time.Time{}
		}
		return evs[len(evs)-1].Time
	}
	// Of the hosts a filter flagged, take the first that held services before.
	pick := func(why flagReason) (netip.Addr, time.Time) {
		for _, a := range m.flaggedHosts(why) {
			at := flaggedAt(a)
			if h, ok := m.Host(a, at.Add(-time.Nanosecond)); !at.IsZero() && ok && len(h.Services) > 0 {
				return a, at
			}
		}
		t.Fatalf("no %s host was flagged after holding services (%d flagged)", why, len(m.flaggedHosts(why)))
		return netip.Addr{}, time.Time{}
	}
	type flaggedCase struct {
		cause string
		addr  netip.Addr
		at    time.Time
	}
	var cases []flaggedCase
	for _, why := range []flagReason{flagPseudo, flagHoneypot} {
		addr, at := pick(why)
		cases = append(cases, flaggedCase{string(why), addr, at})
	}
	// The opt-out victim presents a certificate, so the cert pivot is tested.
	for _, r := range m.CurrentServices(false) {
		if h, ok := m.HostCurrent(r.Addr); ok && r.TLS && m.barred(r.Addr) == "" && len(h.Services) > 1 {
			if _, err := m.AddExclusion(netip.PrefixFrom(r.Addr, 28), "noc@example.net"); err != nil {
				t.Fatal(err)
			}
			cases = append(cases, flaggedCase{"opted-out prefix", r.Addr, m.clock.Now()})
			break
		}
	}
	if len(cases) != 3 {
		t.Fatal("no TLS host to opt out")
	}
	// Another day: nothing re-adds the hosts, and a daily snapshot is taken.
	runFor(m, 25*time.Hour)
	m.Stop()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	dates := m.Analytics().Dates()
	today, _ := m.Analytics().At(dates[len(dates)-1])
	all, err := m.Search(`services.port: [1 TO 65535]`)
	if err != nil || len(all) == 0 {
		t.Fatalf("search for every host: %d hosts, err %v", len(all), err)
	}
	if hosts, err := m.index.SearchHosts(`ip: ` + all[0].IP.String()); err != nil || len(hosts) == 0 {
		t.Fatalf("a host fetch by ip finds a live host: %d hosts, err %v", len(hosts), err)
	}

	for _, tc := range cases {
		t.Run(tc.cause, func(t *testing.T) {
			id := tc.addr.String()
			before, ok := m.Host(tc.addr, tc.at.Add(-time.Nanosecond))
			if !ok || len(before.Services) == 0 {
				t.Fatalf("time travel to just before the flag: found %v", ok)
			}

			// The public lookup serves no service: the answer a host whose
			// services were all evicted gets.
			rec := httptest.NewRecorder()
			m.Lookup().ServeHTTP(rec, httptest.NewRequest("GET", "/v2/hosts/"+id, nil))
			var body entity.Host
			if rec.Code != http.StatusNotFound {
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					t.Fatalf("GET /v2/hosts/%s: %d, body does not decode: %v", id, rec.Code, err)
				}
			}
			if len(body.Services) != 0 {
				t.Errorf("GET /v2/hosts/%s: %d with %d services in a %d-byte body", id, rec.Code, len(body.Services), rec.Body.Len())
			}
			if h, ok := m.Host(tc.addr, time.Time{}); ok && len(h.Services) != 0 {
				t.Errorf("Host(now) holds %d services", len(h.Services))
			}
			if _, ok := m.HostCurrent(tc.addr); ok {
				t.Error("HostCurrent serves the host")
			}
			if h := m.processor.CurrentState(id); h != nil && len(h.Services) != 0 {
				t.Errorf("the write side materializes %d services", len(h.Services))
			}
			if m.index.Host(id) != nil {
				t.Error("the search index holds a document")
			}
			for _, h := range all {
				if h.IP == tc.addr {
					t.Error("Search returns the host")
				}
			}
			hosts, err := m.index.SearchHosts(`ip: ` + id)
			if err != nil || len(hosts) != 0 {
				t.Errorf("the index's host fetch: %d hosts, err %v", len(hosts), err)
			}
			for _, r := range m.CurrentServices(true) {
				if r.Addr == tc.addr {
					t.Errorf("CurrentServices exports %v:%d", r.Addr, r.Port)
				}
			}
			for _, r := range today.Rows {
				if r.IP == id {
					t.Errorf("the daily snapshot of %v has a row for port %d", today.Date, r.Port)
				}
			}
			for _, svc := range before.Services {
				for _, loc := range m.CertHosts(svc.CertSHA256) {
					if strings.HasPrefix(loc, id+" ") {
						t.Errorf("CertHosts(%.12s) still locates %s", svc.CertSHA256, loc)
					}
				}
			}

			// History: every slot ever found ends removed, and the journal's
			// tail is one removal per slot held at the flag, dated at it.
			removed := 0
			for _, ev := range m.History(tc.addr) {
				if ev.Kind == cqrs.KindServiceRemoved && ev.Time.Equal(tc.at) {
					removed++
				}
			}
			if removed < len(before.Services) || flaggedAt(tc.addr) != tc.at {
				t.Errorf("history: %d removals dated %v (journal ends %v) for %d slots held just before",
					removed, tc.at, flaggedAt(tc.addr), len(before.Services))
			}
		})
	}
}

// coveragePct is the share of the universe's live services the dataset
// holds, in percent.
func coveragePct(m *Map) float64 {
	held := map[slotKey]bool{}
	for _, r := range m.CurrentServices(false) {
		held[slotKey{r.Addr, r.Port, r.Transport}] = true
	}
	truth := m.net.LiveServices(m.clock.Now(), false)
	hit := 0
	for _, s := range truth {
		if held[slotKey{s.Addr, s.Port, s.Transport}] {
			hit++
		}
	}
	return 100 * float64(hit) / float64(len(truth))
}

// TestPseudoFilterKeepsCoverageFlat runs the shipped filter over a
// service-rich, churning /22 that holds pseudo-hosts for 15 days — the
// scan_refresh benchmark's universe shape and pipeline (prediction off), with
// pseudo-hosts left in. The filter flags the pseudo-hosts and nothing else,
// so coverage holds: a filter that counts observations instead flags every
// ordinary host once it has been refreshed often enough, and coverage falls
// by half over these days.
func TestPseudoFilterKeepsCoverageFlat(t *testing.T) {
	ncfg := simnet.DefaultConfig()
	ncfg.Prefix = netip.MustParsePrefix("10.0.0.0/22")
	ncfg.Seed = 1
	ncfg.HostDensity = 0.9
	ncfg.MeanServices = 6
	ncfg.CloudBlocks = 1
	ncfg.ChurnFraction = 0.35
	ncfg.WebProperties = 0
	ncfg.PseudoHostRate = 0.002
	net := simnet.New(ncfg, simclock.New())

	cfg := DefaultConfig()
	cfg.CloudBlocks = ncfg.CloudBlocks
	cfg.DisablePrediction = true
	m, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	runFor(m, 5*24*time.Hour)
	day5 := coveragePct(m)
	runFor(m, 10*24*time.Hour)
	m.Stop()
	day15 := coveragePct(m)
	t.Logf("coverage %.1f%% on day 5, %.1f%% on day 15; %d pseudo-flagged", day5, day15, m.PseudoHosts())

	if day15 < day5-1 {
		t.Errorf("coverage fell from %.1f%% on day 5 to %.1f%% on day 15", day5, day15)
	}
	if m.PseudoHosts() == 0 {
		t.Error("no pseudo-host was flagged")
	}
	for _, a := range m.flaggedHosts(flagPseudo) {
		if h := net.HostAt(a); h == nil || !h.Pseudo && !h.Tarpit {
			t.Errorf("flagged %v, which answers only on its own ports", a)
		}
	}
}

// excludedRecorder is a simnet path observer that counts every probe and
// connection addressed into its prefixes. It drops nothing. The prefix list
// is only extended between ticks, while no probe is in flight.
type excludedRecorder struct {
	prefixes []netip.Prefix
	hits     atomic.Uint64
}

func (r *excludedRecorder) Drop(_ simnet.Scanner, addr netip.Addr, op simnet.Op, _ uint64, _ time.Time) simnet.Cause {
	if op == simnet.OpConnectName {
		return simnet.Delivered // web properties are addressed by name
	}
	for _, p := range r.prefixes {
		if p.Contains(addr) {
			r.hits.Add(1)
			break
		}
	}
	return simnet.Delivered
}

// TestPseudoChecksNeverAddressExcluded: no operation the pipeline sends —
// the seed scan, discovery, refreshes, predictions, re-injections and the
// pseudo-host check's connects — addresses an excluded address, whether the
// prefix is excluded by configuration or opted out mid-run. Both prefixes
// hold a pseudo-host, so a check into either would show.
func TestPseudoChecksNeverAddressExcluded(t *testing.T) {
	ncfg := simnet.DefaultConfig()
	ncfg.Prefix = netip.MustParsePrefix("10.0.0.0/22")
	ncfg.CloudBlocks = 1
	ncfg.WebProperties = 10
	ncfg.PseudoHostRate = 0.05
	net := simnet.New(ncfg, simclock.New())

	// The /26s of the first and the last pseudo-host.
	var pseudo []netip.Addr
	for _, a := range net.Addrs() {
		if net.HostAt(a).Pseudo {
			pseudo = append(pseudo, a)
		}
	}
	static := netip.PrefixFrom(pseudo[0], 26).Masked()
	optOut := netip.PrefixFrom(pseudo[len(pseudo)-1], 26).Masked()
	if static == optOut {
		t.Fatal("both pseudo-hosts in one /26")
	}

	cfg := DefaultConfig()
	cfg.CloudBlocks = 1
	cfg.Excluded = []netip.Prefix{static}
	m, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	rec := &excludedRecorder{prefixes: []netip.Prefix{static}}
	before := &excludedRecorder{prefixes: []netip.Prefix{optOut}}
	net.SetFaultInjector(before)
	runFor(m, 24*time.Hour)
	if before.hits.Load() == 0 {
		t.Fatal("nothing addressed the prefix before its opt-out; the case is vacuous")
	}
	net.SetFaultInjector(rec)
	runFor(m, 6*time.Hour)
	if _, err := m.AddExclusion(optOut, "noc@example.net"); err != nil {
		t.Fatal(err)
	}
	rec.prefixes = append(rec.prefixes, optOut)
	runFor(m, 2*24*time.Hour)
	m.Stop()

	if n := rec.hits.Load(); n != 0 {
		t.Errorf("%d operations addressed an excluded address", n)
	}
	if m.PseudoHosts() == 0 {
		t.Error("no pseudo-host was flagged; the check never ran")
	}
}
