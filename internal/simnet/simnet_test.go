package simnet

import (
	"net/netip"
	"testing"
	"time"

	"censysmap/internal/draw"
	"censysmap/internal/entity"
	"censysmap/internal/protocols"
	"censysmap/internal/simclock"
)

// smallConfig keeps generation fast for tests: a /20 universe.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix("10.0.0.0/20")
	cfg.CloudBlocks = 2
	cfg.WebProperties = 40
	return cfg
}

func newSmall(t *testing.T) (*Internet, *simclock.Sim) {
	t.Helper()
	clk := simclock.New()
	return New(smallConfig(), clk), clk
}

var censysScanner = Scanner{ID: "censys", SourceIPs: 256, Country: "US"}

func TestGenerationDeterministic(t *testing.T) {
	a := New(smallConfig(), simclock.New())
	b := New(smallConfig(), simclock.New())
	if a.Hosts() != b.Hosts() {
		t.Fatalf("host counts differ: %d vs %d", a.Hosts(), b.Hosts())
	}
	sa := a.LiveServices(a.Epoch(), false)
	sb := b.LiveServices(b.Epoch(), false)
	if len(sa) != len(sb) {
		t.Fatalf("service counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("service %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

func TestSeedChangesUniverse(t *testing.T) {
	cfg := smallConfig()
	a := New(cfg, simclock.New())
	cfg.Seed = 2
	b := New(cfg, simclock.New())
	sa, sb := a.LiveServices(a.Epoch(), false), b.LiveServices(b.Epoch(), false)
	if len(sa) == len(sb) {
		same := true
		for i := range sa {
			if sa[i] != sb[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical universes")
		}
	}
}

func TestHostDensityApproximate(t *testing.T) {
	n, _ := newSmall(t)
	total := 1 << 12 // /20
	got := float64(n.Hosts()) / float64(total)
	if got < 0.06 || got > 0.14 {
		t.Fatalf("host density = %.3f, want ~0.10", got)
	}
}

func TestPortDistributionSmoothDecay(t *testing.T) {
	// Figure 4's shape: top ports hold real mass, but the majority of
	// services sit outside the top 10 (service diffusion).
	n, _ := newSmall(t)
	services := n.LiveServices(n.Epoch(), false)
	byPort := map[uint16]int{}
	for _, s := range services {
		byPort[s.Port]++
	}
	top10 := []uint16{80, 443, 22, 7547, 21, 25, 8080, 3389, 53, 23}
	topCount := 0
	for _, p := range top10 {
		topCount += byPort[p]
	}
	fracTop := float64(topCount) / float64(len(services))
	if fracTop < 0.12 || fracTop > 0.45 {
		t.Fatalf("top-10 port share = %.2f, want diffusion (0.12-0.45)", fracTop)
	}
	if len(byPort) < len(services)/4 {
		t.Fatalf("ports too concentrated: %d distinct ports for %d services", len(byPort), len(services))
	}
}

func TestPseudoHostsAnswerEverywhere(t *testing.T) {
	cfg := smallConfig()
	cfg.PseudoHostRate = 0.05 // force some into a small universe
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	n := New(cfg, simclock.New())
	var pseudo *Host
	for _, a := range n.Addrs() {
		if n.HostAt(a).Pseudo {
			pseudo = n.HostAt(a)
			break
		}
	}
	if pseudo == nil {
		t.Skip("no pseudo host generated in small universe")
	}
	open := 0
	for _, port := range []uint16{1, 80, 12345, 54321, 65535} {
		if n.ProbeTCP(censysScanner, pseudo.Addr, port) == Open {
			open++
		}
	}
	if open != 5 {
		t.Fatalf("pseudo host answered %d/5 ports, want 5", open)
	}
}

func TestProbeTCPOpenClosed(t *testing.T) {
	cfg := smallConfig()
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	n := New(cfg, simclock.New())
	ref := firstTCPService(n)
	if n.ProbeTCP(censysScanner, ref.Addr, ref.Port) != Open {
		t.Fatal("live service not Open")
	}
	// A port with no slot on a live, non-pseudo host must answer Closed.
	h := n.HostAt(ref.Addr)
	var free uint16 = 64999
	for _, s := range h.Slots {
		if s.Port == free {
			free--
		}
	}
	if got := n.ProbeTCP(censysScanner, ref.Addr, free); got != Closed {
		t.Fatalf("empty port = %v, want Closed", got)
	}
	// Dead address: no response.
	dead := netip.MustParseAddr("10.0.255.254")
	for n.HostAt(dead) != nil {
		dead = netip.MustParseAddr("10.0.255.253")
	}
	if got := n.ProbeTCP(censysScanner, dead, 80); got != Dropped {
		t.Fatalf("dead host = %v, want Dropped", got)
	}
}

func firstTCPService(n *Internet) ServiceRef {
	for _, s := range n.LiveServices(n.Epoch(), false) {
		if s.Transport == entity.TCP {
			return s
		}
	}
	panic("no TCP service in universe")
}

func TestConnectAndScan(t *testing.T) {
	cfg := smallConfig()
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	n := New(cfg, simclock.New())
	ref := firstTCPService(n)
	conn, ok := n.Connect(censysScanner, ref.Addr, ref.Port, ref.Transport)
	if !ok {
		t.Fatal("Connect failed for live service")
	}
	slot := n.SlotAt(ref.Addr, ref.Port, ref.Transport)
	if slot.Spec.TLS {
		_, inner, _, err := protocols.StartTLS(conn)
		if err != nil {
			t.Fatal(err)
		}
		conn = inner
	}
	p := protocols.Lookup(ref.Protocol)
	res, err := p.Scan(conn)
	if err != nil {
		t.Fatalf("Scan %s: %v", ref.Protocol, err)
	}
	if !res.Complete {
		t.Fatalf("incomplete scan of %s: %+v", ref.Protocol, res)
	}
}

func TestChurnChangesLiveSet(t *testing.T) {
	n, clk := newSmall(t)
	before := len(n.LiveServices(clk.Now(), false))
	clk.Advance(36 * time.Hour)
	after := len(n.LiveServices(clk.Now(), false))
	if before == 0 || after == 0 {
		t.Fatal("no services")
	}
	// Some churn must occur, but the bulk of the Internet is stable.
	setBefore := map[ServiceRef]bool{}
	for _, s := range n.LiveServices(clk.Now().Add(-36*time.Hour), false) {
		setBefore[s] = true
	}
	gone := 0
	for s := range setBefore {
		found := false
		for _, cur := range n.LiveServices(clk.Now(), false) {
			if cur == s {
				found = true
				break
			}
		}
		if !found {
			gone++
		}
	}
	churnRate := float64(gone) / float64(before)
	if churnRate == 0 {
		t.Fatal("no churn over 36 hours")
	}
	if churnRate > 0.6 {
		t.Fatalf("churn rate %.2f too extreme", churnRate)
	}
}

func TestSlotAliveAtSchedule(t *testing.T) {
	epoch := simclock.Epoch
	s := &Slot{Port: 80, Transport: entity.TCP, Birth: epoch,
		Period: 10 * time.Hour, Duty: 0.5, Phase: 0}
	if !s.AliveAt(epoch, epoch.Add(time.Hour)) {
		t.Fatal("should be up in first half of period")
	}
	if s.AliveAt(epoch, epoch.Add(6*time.Hour)) {
		t.Fatal("should be down in second half of period")
	}
	if !s.AliveAt(epoch, epoch.Add(11*time.Hour)) {
		t.Fatal("should be up again next period")
	}
	if s.AliveAt(epoch, epoch.Add(-time.Hour)) {
		t.Fatal("alive before birth")
	}
}

func TestBlockingTriggersOnAggressiveScanning(t *testing.T) {
	cfg := smallConfig()
	cfg.BlockThreshold = 100
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	n := New(cfg, simclock.New())
	aggressive := Scanner{ID: "noisy", SourceIPs: 1, Country: "US"}
	target := n.Addrs()[0]
	// Hammer one /24 beyond the threshold.
	for i := 0; i < 200; i++ {
		n.ProbeTCP(aggressive, target, uint16(i+1))
	}
	if n.BlockedNetworks("noisy") == 0 {
		t.Fatal("aggressive scanner not blocked")
	}
	// Once blocked, even live services stop answering.
	ref := firstTCPService(n)
	if draw.Net24(ref.Addr) == draw.Net24(target) {
		if n.ProbeTCP(aggressive, ref.Addr, ref.Port) != Dropped {
			t.Fatal("blocked scanner still gets responses")
		}
	}
	// A scanner with a large source pool is not blocked at the same volume.
	for i := 0; i < 200; i++ {
		n.ProbeTCP(censysScanner, target, uint16(i+1))
	}
	if n.BlockedNetworks("censys") != 0 {
		t.Fatal("distributed scanner blocked at modest volume")
	}
}

func TestBlockExpires(t *testing.T) {
	cfg := smallConfig()
	cfg.BlockThreshold = 10
	cfg.BlockDuration = 24 * time.Hour
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	clk := simclock.New()
	n := New(cfg, clk)
	sc := Scanner{ID: "x", SourceIPs: 1, Country: "US"}
	target := n.Addrs()[0]
	for i := 0; i < 30; i++ {
		n.ProbeTCP(sc, target, uint16(i+1))
	}
	if n.BlockedNetworks("x") == 0 {
		t.Fatal("not blocked")
	}
	clk.Advance(25 * time.Hour)
	if n.BlockedNetworks("x") != 0 {
		t.Fatal("block did not expire")
	}
}

func TestWebPropertiesDiscoverableViaCT(t *testing.T) {
	n, _ := newSmall(t)
	if len(n.WebSites()) != 40 {
		t.Fatalf("web properties = %d, want 40", len(n.WebSites()))
	}
	// Every site's cert must appear in the CT log.
	fps := map[string]bool{}
	for _, e := range n.CT.Entries(0, 0) {
		fps[e.Cert.FingerprintSHA256()] = true
	}
	for name, site := range n.WebSites() {
		if !fps[site.Cert.FingerprintSHA256()] {
			t.Fatalf("site %s cert not in CT log", name)
		}
	}
}

func TestConnectNameServesSite(t *testing.T) {
	cfg := smallConfig()
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	n := New(cfg, simclock.New())
	var name string
	for nm, site := range n.WebSites() {
		if !site.Birth.After(n.Epoch()) {
			name = nm
			break
		}
	}
	if name == "" {
		t.Skip("no site online at epoch")
	}
	conn, ok := n.ConnectName(censysScanner, name, 443)
	if !ok {
		t.Fatal("ConnectName failed")
	}
	info, inner, _, err := protocols.StartTLS(conn)
	if err != nil {
		t.Fatal(err)
	}
	if info.CertSHA256 != n.WebSites()[name].Cert.FingerprintSHA256() {
		t.Fatal("served cert mismatch")
	}
	res, err := protocols.ScanHTTPHost(inner, name)
	if err != nil || !res.Complete {
		t.Fatalf("HTTP over TLS failed: %v %+v", err, res)
	}
	if _, ok := n.ConnectName(censysScanner, "nonexistent.example", 443); ok {
		t.Fatal("unknown name resolved")
	}
}

func TestAddRemoveHost(t *testing.T) {
	n, _ := newSmall(t)
	n.RemoveHost(netip.MustParseAddr("10.0.200.200")) // outside the universe: a no-op
	addr := netip.MustParseAddr("10.0.15.200")
	for n.HostAt(addr) != nil {
		addr = addr.Next()
	}
	n.RemoveHost(addr) // idempotent on absent host
	h := &Host{Addr: addr, Country: "US",
		Slots: []*Slot{{Port: 8080, Transport: entity.TCP,
			Spec: protocols.Spec{Protocol: "HTTP"}, Birth: n.Epoch()}}}
	before := n.Hosts()
	n.AddHost(h)
	if n.Hosts() != before+1 || n.HostAt(addr) == nil {
		t.Fatal("AddHost failed")
	}
	n.RemoveHost(addr)
	if n.HostAt(addr) != nil {
		t.Fatal("RemoveHost failed")
	}
}

func TestICSFractionSmall(t *testing.T) {
	n, _ := newSmall(t)
	services := n.LiveServices(n.Epoch(), false)
	ics := 0
	for _, s := range services {
		if s.ICS {
			ics++
		}
	}
	frac := float64(ics) / float64(len(services))
	if ics == 0 {
		t.Fatal("no ICS services generated")
	}
	if frac > 0.08 {
		t.Fatalf("ICS fraction %.3f too high; should be rare", frac)
	}
}

func TestCloudHostsChurnFaster(t *testing.T) {
	n, _ := newSmall(t)
	var cloudPeriods, otherPeriods []time.Duration
	for _, a := range n.Addrs() {
		h := n.HostAt(a)
		for _, s := range h.Slots {
			if s.Period == 0 {
				continue
			}
			if h.Cloud {
				cloudPeriods = append(cloudPeriods, s.Period)
			} else {
				otherPeriods = append(otherPeriods, s.Period)
			}
		}
	}
	if len(cloudPeriods) == 0 || len(otherPeriods) == 0 {
		t.Skip("universe too small for both groups")
	}
	if mean(cloudPeriods) >= mean(otherPeriods) {
		t.Fatalf("cloud churn period %v >= other %v", mean(cloudPeriods), mean(otherPeriods))
	}
}

func mean(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func TestPassiveDNSSubset(t *testing.T) {
	n, _ := newSmall(t)
	pdns := n.PassiveDNS()
	if len(pdns) == 0 || len(pdns) >= len(n.WebSites()) {
		t.Fatalf("passive DNS returned %d of %d names; want a strict subset",
			len(pdns), len(n.WebSites()))
	}
	for _, name := range pdns {
		if n.WebSites()[name] == nil {
			t.Fatalf("passive DNS invented name %q", name)
		}
	}
}
