package simnet

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"censysmap/internal/draw"
	"censysmap/internal/entity"
	"censysmap/internal/simclock"
)

// pathStats is the number of probes each layer of the path has dropped,
// indexed by Cause (the Delivered slot stays zero).
type pathStats [NumCauses]uint64

func statsOf(n *Internet) pathStats {
	var s pathStats
	for c := range s {
		s[c] = n.drops[c].Value()
	}
	return s
}

func (s pathStats) total() uint64 {
	var t uint64
	for _, v := range s {
		t += v
	}
	return t
}

// quietConfig is smallConfig with every path layer switched off, so a test
// turns on exactly the one it is about.
func quietConfig() Config {
	cfg := smallConfig()
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	cfg.BlockThreshold = 0
	return cfg
}

// TestPathStateBoundedByPairs: the network keeps one record per (scanner,
// /24) it has seen, however long the run — the day-keyed counters reset on
// rollover instead of accumulating a key per day.
func TestPathStateBoundedByPairs(t *testing.T) {
	cfg := smallConfig()
	cfg.Adversary = AdversaryConfig{Seed: 1, DetectorRate: 0.5, DetectorThreshold: 1 << 30}
	clk := simclock.New()
	n := New(cfg, clk)
	scanners := []Scanner{censysScanner, {ID: "other", SourceIPs: 4, Country: "DE"}}
	pairs := map[scanNetKey]bool{}
	for day := 0; day < 60; day++ {
		for _, sc := range scanners {
			for _, a := range n.Addrs() {
				n.ProbeTCP(sc, a, 80)
				n.Connect(sc, a, 80, entity.TCP)
				pairs[scanNetKey{sc.ID, draw.AddrU32(a) &^ 0xFF}] = true
			}
		}
		clk.Advance(24 * time.Hour)
	}
	records := 0
	n.eachPath("", func(*netPath) { records++ })
	if len(n.scanners) != len(scanners) || records != len(pairs) {
		t.Fatalf("%d scanner tables holding %d path records after 60 days, want %d and %d: one per (scanner, /24) touched",
			len(n.scanners), records, len(scanners), len(pairs))
	}
}

// TestProbeAllocations: a probe into dead space and a steady-state probe to
// a live host allocate nothing.
func TestProbeAllocations(t *testing.T) {
	n := New(quietConfig(), simclock.New())
	ref := firstTCPService(n)
	dead := draw.U32Addr(n.base)
	for n.HostAt(dead) != nil {
		dead = dead.Next()
	}
	sc := Scanner{ID: "x+r1", SourceIPs: 1, Country: "US"}
	n.ProbeTCP(sc, ref.Addr, ref.Port) // the path record's one allocation
	for name, probe := range map[string]func(){
		"dead space": func() { n.ProbeTCP(sc, dead, 80) },
		"live host":  func() { n.ProbeTCP(sc, ref.Addr, ref.Port) },
	} {
		if a := testing.AllocsPerRun(1000, probe); a != 0 {
			t.Errorf("ProbeTCP into %s: %v allocs, want 0", name, a)
		}
	}
}

// TestAddHostOutsideUniversePanics: a host discovery could never sweep is a
// caller bug, not a silent no-op.
func TestAddHostOutsideUniversePanics(t *testing.T) {
	n := New(quietConfig(), simclock.New())
	for _, a := range []string{"10.0.16.0", "9.255.255.255", "::ffff:10.0.0.1"} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "outside the universe") {
					t.Errorf("AddHost(%s): recovered %v, want an outside-the-universe panic", a, r)
				}
			}()
			n.AddHost(&Host{Addr: netip.MustParseAddr(a)})
		}()
	}
}

// TestEveryCauseReachableAndCounted: each Cause can be the fate of a probe,
// it is counted under its own name and no other, and the counts add up —
// every probe that enters the path is either delivered or counted in n.drops.
func TestEveryCauseReachableAndCounted(t *testing.T) {
	foreign := Scanner{ID: "s", SourceIPs: 1, Country: "ZZ"}
	local := Scanner{ID: "s", SourceIPs: 1, Country: "US"}
	cases := map[Cause]struct {
		scanner Scanner
		op      Op
		setup   func(*Config)
	}{
		CauseRateBlock:    {local, OpProbe, func(c *Config) { c.BlockThreshold = 20 }},
		CauseDetector:     {local, OpProbe, func(c *Config) { c.Adversary = AdversaryConfig{DetectorRate: 1, DetectorThreshold: 20} }},
		CauseFaultBlock:   {local, OpProbe, func(c *Config) { c.Adversary = AdversaryConfig{FaultBlockRate: 1} }},
		CauseFaultStorm:   {local, OpProbe, func(c *Config) { c.Adversary = AdversaryConfig{FaultStormRate: 1} }},
		CauseFaultBurst:   {local, OpProbe, func(c *Config) { c.Adversary = AdversaryConfig{FaultBurstRate: 1, FaultBurstLoss: 0.3} }},
		CauseFaultTimeout: {local, OpConnect, func(c *Config) { c.Adversary = AdversaryConfig{FaultTimeoutRate: 0.3} }},
		CauseFaultLoss:    {local, OpProbe, func(c *Config) { c.Adversary = AdversaryConfig{FaultLoss: 0.3} }},
		CauseReputation:   {Scanner{ID: "s", SourceIPs: 1, Country: "US", BlockedFrac: 1}, OpProbe, func(*Config) {}},
		CauseGeoblock:     {foreign, OpProbe, func(c *Config) { c.GeoblockRate = 1 }},
		CauseOutage:       {local, OpProbe, func(c *Config) { c.OutageRate = 1 }},
		CauseLoss:         {local, OpProbe, func(c *Config) { c.BaseLoss = 0.2 }},
	}
	for c := Delivered + 1; c < NumCauses; c++ {
		tc, ok := cases[c]
		if !ok {
			t.Fatalf("cause %v has no case: add one", c)
		}
		cfg := quietConfig()
		tc.setup(&cfg)
		n := New(cfg, simclock.New())
		var entered, delivered uint64
		for round := 0; round < 4; round++ {
			for _, a := range n.Addrs() {
				entered++
				var ok bool
				if tc.op == OpConnect { // Connect's result also says whether port 80 is open
					_, ok = n.pathOK(tc.scanner, a, OpConnect)
				} else {
					ok = n.ProbeTCP(tc.scanner, a, 80) != Dropped
				}
				if ok {
					delivered++
				}
			}
		}
		st := statsOf(n)
		if st[c] == 0 {
			t.Errorf("%v: never fired: %v", c, st)
		}
		if st.total() != st[c] {
			t.Errorf("%v: other causes counted too: %v", c, st)
		}
		if st.total()+delivered != entered {
			t.Errorf("%v: %d dropped + %d delivered != %d entered", c, st.total(), delivered, entered)
		}
	}
}

// TestConnectsNeverTripBlocks: only discovery probes feed the rate and
// detector counters, so parallel interrogation traffic cannot decide which
// probe trips a block.
func TestConnectsNeverTripBlocks(t *testing.T) {
	cfg := quietConfig()
	cfg.BlockThreshold = 10
	n := New(cfg, simclock.New())
	sc := Scanner{ID: "x", SourceIPs: 1, Country: "US"}
	target := n.Addrs()[0]
	for i := 0; i < 100; i++ {
		n.Connect(sc, target, 80, entity.TCP)
	}
	if n.BlockedNetworks("x") != 0 || statsOf(n).total() != 0 {
		t.Fatalf("connect traffic tripped a block: %v", statsOf(n))
	}
}
