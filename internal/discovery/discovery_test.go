package discovery

import (
	"maps"
	"net/netip"
	"testing"
	"time"

	"censysmap/internal/cyclic"
	"censysmap/internal/entity"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
	"censysmap/internal/telemetry"
)

func quietConfig() simnet.Config {
	cfg := simnet.DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix("10.0.0.0/22")
	cfg.CloudBlocks = 1
	cfg.WebProperties = 10
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	return cfg
}

func censysLike() simnet.Scanner {
	return simnet.Scanner{ID: "censys", SourceIPs: 256, Country: "US"}
}

// testLedger registers each class at its ProbesPerTick, so the ledger's
// grants never bind tighter than the classes' own budgets.
func testLedger(classes []ClassConfig) *Ledger {
	l := NewLedger()
	for _, c := range classes {
		l.Register(c.Name, c.ProbesPerTick)
	}
	return l
}

func newEngine(t *testing.T, net *simnet.Internet, classes []ClassConfig) *Engine {
	t.Helper()
	e, err := New(Config{
		Scanner: censysLike(),
		PoPs:    DefaultPoPs(),
		Classes: classes,
		Seed:    7,
		Ledger:  testLedger(classes),
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func priorityClass(t *testing.T, prefix netip.Prefix, budget int) ClassConfig {
	t.Helper()
	space, err := cyclic.NewPrefixSpace(prefix, PriorityPorts())
	if err != nil {
		t.Fatal(err)
	}
	return ClassConfig{Name: "priority", Method: entity.DetectPriorityScan,
		Space: space, ProbesPerTick: budget, Restart: true}
}

func TestDiscoveryFindsLiveServices(t *testing.T) {
	clk := simclock.New()
	net := simnet.New(quietConfig(), clk)
	cls := priorityClass(t, quietConfig().Prefix, 1<<20)
	e := newEngine(t, net, []ClassConfig{cls})

	found := map[[2]any]bool{}
	e.Tick(clk.Now(), func(c Candidate) {
		found[[2]any{c.Addr, c.Port}] = true
	})

	// Every live TCP service on a priority port must be discovered in a
	// full lossless pass.
	missed := 0
	total := 0
	prio := map[uint16]bool{}
	for _, p := range PriorityPorts() {
		prio[p] = true
	}
	for _, s := range net.LiveServices(clk.Now(), false) {
		if s.Transport != entity.TCP || !prio[s.Port] {
			continue
		}
		total++
		if !found[[2]any{s.Addr, s.Port}] {
			missed++
		}
	}
	if total == 0 {
		t.Fatal("no services on priority ports in universe")
	}
	if missed != 0 {
		t.Fatalf("missed %d/%d services in a lossless full pass", missed, total)
	}
}

func TestDiscoveryEmitsUDPCandidates(t *testing.T) {
	clk := simclock.New()
	net := simnet.New(quietConfig(), clk)
	cls := priorityClass(t, quietConfig().Prefix, 1<<20)
	e := newEngine(t, net, []ClassConfig{cls})

	udp := 0
	e.Tick(clk.Now(), func(c Candidate) {
		if c.Transport == entity.UDP {
			udp++
			if c.UDPProtocol == "" {
				t.Fatal("UDP candidate without protocol")
			}
		}
	})
	wantUDP := 0
	for _, s := range net.LiveServices(clk.Now(), false) {
		if s.Transport == entity.UDP {
			wantUDP++
		}
	}
	if wantUDP == 0 {
		t.Skip("no UDP services generated in small universe")
	}
	if udp == 0 {
		t.Fatal("no UDP candidates discovered")
	}
}

// refSweep is the reference the engine's optimized loop is held to. It walks
// one pass of cls in the order an engine e would, rotating through the PoPs
// one probe target at a time and looking each port up in the UDP probe
// table, and asks the network for every probe's fate directly.
func refSweep(t *testing.T, net *simnet.Internet, e *Engine, cls ClassConfig, now time.Time) map[Candidate]bool {
	t.Helper()
	it, err := cyclic.NewIterator(cls.Space, e.cfg.Seed^cyclic.NameSeed(cls.Name))
	if err != nil {
		t.Fatal(err)
	}
	found := map[Candidate]bool{}
	for i := 0; ; i++ {
		addr, port, ok := it.Next()
		if !ok {
			return found
		}
		pop := e.cfg.PoPs[i%len(e.cfg.PoPs)]
		sc := e.cfg.Scanner
		sc.Country = pop.Country
		c := Candidate{Addr: addr, Port: port, Transport: entity.TCP, Method: cls.Method, PoP: pop.Name, Time: now}
		if net.ProbeTCP(sc, addr, port) == simnet.Open {
			found[c] = true
		}
		if up, ok := e.udpProbes[port]; ok {
			if resp, out := net.ProbeUDP(sc, addr, port, up.payload); out == simnet.Open && len(resp) > 0 {
				c.Transport, c.UDPProtocol = entity.UDP, up.protocol
				found[c] = true
			}
		}
	}
}

// TestSweepMatchesReference: one pass of the priority class finds the same
// candidates, and the network drops the same probes for the same reasons,
// whether the engine's loop or the naive reference walk sends them — in a
// universe where the rate block and the scan detector both fire.
func TestSweepMatchesReference(t *testing.T) {
	cfg := quietConfig()
	cfg.BlockThreshold = 2 // × the scanner's 256 source IPs, per /24 per day
	cfg.Adversary = simnet.AdversaryConfig{Seed: 1, DetectorRate: 0.5, DetectorThreshold: 300}
	cls := priorityClass(t, cfg.Prefix, 0)
	cls.ProbesPerTick, cls.Restart = int(cls.Space.Size()), false

	clkA := simclock.New()
	netA := simnet.New(cfg, clkA)
	e := newEngine(t, netA, []ClassConfig{cls})
	fast := map[Candidate]bool{}
	e.Tick(clkA.Now(), func(c Candidate) { fast[c] = true })

	clkB := simclock.New()
	netB := simnet.New(cfg, clkB)
	ref := refSweep(t, netB, e, cls, clkB.Now())

	if len(fast) == 0 || len(fast) != len(ref) {
		t.Fatalf("engine found %d, reference %d", len(fast), len(ref))
	}
	for c := range fast {
		if !ref[c] {
			t.Fatalf("reference missed %+v", c)
		}
	}
	st := drops(netA)
	if st[simnet.CauseRateBlock.String()] == 0 || st[simnet.CauseDetector.String()] == 0 {
		t.Fatalf("the rate block or the detector never fired: %v", st)
	}
	if rst := drops(netB); !maps.Equal(rst, st) {
		t.Fatalf("drops: engine %v, reference %v", st, rst)
	}
}

// drops reads the network's censys_simnet_drops_total family, by cause.
func drops(n *simnet.Internet) map[string]float64 {
	reg := telemetry.New()
	n.AttachTelemetry(reg)
	out := make(map[string]float64)
	for _, f := range reg.Snapshot(time.Time{}).Families {
		for _, v := range f.Values {
			out[v.Labels["cause"]] = v.Value
		}
	}
	return out
}

// TestRotatedTickAllocations: a rotated engine's steady-state tick allocates
// nothing per probe — each PoP's identity is built once per rotation.
func TestRotatedTickAllocations(t *testing.T) {
	clk := simclock.New()
	cfg := quietConfig()
	net := simnet.New(cfg, clk)
	e := newEngine(t, net, []ClassConfig{priorityClass(t, cfg.Prefix, 1024)})
	e.rotations = 1
	e.buildScanners()
	tick := func() { e.Tick(clk.Now(), func(Candidate) {}) }
	for range 4 {
		tick() // the rotated identity's first probe into each /24 allocates its path record
	}
	if a := testing.AllocsPerRun(20, tick); a != 0 {
		t.Fatalf("rotated engine: %v allocs per 1024-probe tick, want 0", a)
	}
}

func TestExclusionListHonored(t *testing.T) {
	clk := simclock.New()
	cfg := quietConfig()
	net := simnet.New(cfg, clk)
	excluded := netip.MustParsePrefix("10.0.1.0/24")
	classes := []ClassConfig{priorityClass(t, cfg.Prefix, 1<<20)}
	e, err := New(Config{
		Scanner:  censysLike(),
		PoPs:     DefaultPoPs(),
		Classes:  classes,
		Excluded: []netip.Prefix{excluded},
		Seed:     7,
		Ledger:   testLedger(classes),
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	e.Tick(clk.Now(), func(c Candidate) {
		if excluded.Contains(c.Addr) {
			t.Fatalf("excluded address %v probed", c.Addr)
		}
	})
	if e.Stats().Excluded == 0 {
		t.Fatal("no probes skipped for excluded prefix")
	}
}

func TestContinuousRestartCoversAgain(t *testing.T) {
	clk := simclock.New()
	cfg := quietConfig()
	net := simnet.New(cfg, clk)
	space, _ := cyclic.NewPrefixSpace(cfg.Prefix, []uint16{80})
	cls := ClassConfig{Name: "tiny", Method: entity.DetectPriorityScan,
		Space: space, ProbesPerTick: int(space.Size()) + 10, Restart: true}
	e := newEngine(t, net, []ClassConfig{cls})
	e.Tick(clk.Now(), func(Candidate) {})
	if e.Stats().CyclesComplete == 0 {
		t.Fatal("cycle did not complete")
	}
	sent := e.Stats().ProbesSent
	e.Tick(clk.Now(), func(Candidate) {})
	if e.Stats().ProbesSent <= sent {
		t.Fatal("engine stopped probing after cycle completion")
	}
}

func TestProbesRotateAcrossPoPs(t *testing.T) {
	clk := simclock.New()
	cfg := quietConfig()
	net := simnet.New(cfg, clk)
	e := newEngine(t, net, []ClassConfig{priorityClass(t, cfg.Prefix, 1<<20)})
	pops := map[string]int{}
	e.Tick(clk.Now(), func(c Candidate) { pops[c.PoP]++ })
	if len(pops) != 3 {
		t.Fatalf("candidates from %d PoPs, want 3: %v", len(pops), pops)
	}
}

func TestStandardClassesBudgets(t *testing.T) {
	prefix := netip.MustParsePrefix("10.0.0.0/20")
	classes, err := StandardClasses(prefix, 2, time.Hour, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 3 {
		t.Fatalf("classes = %d, want 3", len(classes))
	}
	byName := map[string]ClassConfig{}
	for _, c := range classes {
		byName[c.Name] = c
	}
	prio := byName["priority"]
	// A day's ticks must cover the whole priority space.
	if uint64(prio.ProbesPerTick)*24 < prio.Space.Size() {
		t.Fatalf("priority budget %d/tick cannot cover %d targets daily",
			prio.ProbesPerTick, prio.Space.Size())
	}
	bg := byName["background65k"]
	hosts := uint64(1) << 12
	wantDaily := hosts * 100
	gotDaily := uint64(bg.ProbesPerTick) * 24
	if gotDaily < wantDaily || gotDaily > wantDaily+24 {
		t.Fatalf("background daily budget = %d, want ~%d", gotDaily, wantDaily)
	}
	if bg.Space.Size() != hosts*65535 {
		t.Fatalf("background space = %d", bg.Space.Size())
	}
	cloud := byName["cloud"]
	if want := uint64(512 * len(CloudPorts())); cloud.Space.Size() != want {
		t.Fatalf("cloud space = %d, want 512 hosts × %d ports", cloud.Space.Size(), len(CloudPorts()))
	}
}

func TestStandardClassesErrors(t *testing.T) {
	if _, err := StandardClasses(netip.MustParsePrefix("::/64"), 0, time.Hour, 0); err == nil {
		t.Fatal("IPv6 prefix accepted")
	}
}

func TestNewValidation(t *testing.T) {
	clk := simclock.New()
	net := simnet.New(quietConfig(), clk)
	if _, err := New(Config{Scanner: censysLike(), Ledger: NewLedger()}, net); err == nil {
		t.Fatal("engine without PoPs accepted")
	}
	if _, err := New(Config{Scanner: censysLike(), PoPs: DefaultPoPs()}, net); err == nil {
		t.Fatal("engine without a ledger accepted")
	}
	bad := []ClassConfig{{Name: "bad"}}
	if _, err := New(Config{Scanner: censysLike(), PoPs: DefaultPoPs(),
		Classes: bad, Ledger: testLedger(bad)}, net); err == nil {
		t.Fatal("misconfigured class accepted")
	}
}

func TestPriorityPortsIncludeICS(t *testing.T) {
	ports := map[uint16]bool{}
	for _, p := range PriorityPorts() {
		ports[p] = true
	}
	for _, ics := range []uint16{502, 102, 20000, 47808} {
		if !ports[ics] {
			t.Fatalf("ICS port %d missing from priority scan", ics)
		}
	}
}
