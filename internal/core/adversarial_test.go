package core

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"

	"censysmap/internal/cqrs"
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
