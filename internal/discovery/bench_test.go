package discovery

import (
	"net/netip"
	"testing"
	"time"

	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// sweepUniverse is the benchmark's scan_sweep universe: a sparse /18, eight
// cloud /24s, no pseudo-hosts.
func sweepUniverse() simnet.Config {
	c := simnet.DefaultConfig()
	c.Prefix = netip.MustParsePrefix("10.0.0.0/18")
	c.Seed = 1
	c.HostDensity = 0.08
	c.MeanServices = 1.9
	c.CloudBlocks = 8
	c.ChurnFraction = 0.35
	c.WebProperties = 100
	c.PseudoHostRate = 0
	return c
}

// BenchmarkEngineTick drives the pipeline's three scan classes over the
// scan_sweep universe, one hourly tick per op, and reports the cost per
// probe sent.
func BenchmarkEngineTick(b *testing.B) {
	clk := simclock.New()
	cfg := sweepUniverse()
	net := simnet.New(cfg, clk)
	classes, err := StandardClasses(cfg.Prefix, cfg.CloudBlocks, time.Hour, 100)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(Config{
		Scanner: simnet.Scanner{ID: "censys", SourceIPs: 256, Country: "US", BlockedFrac: 0.02},
		PoPs:    DefaultPoPs(),
		Classes: classes,
		Seed:    1,
		Ledger:  testLedger(classes),
	}, net)
	if err != nil {
		b.Fatal(err)
	}
	emit := func(Candidate) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Tick(clk.Now(), emit)
		b.StopTimer()
		clk.Advance(time.Hour)
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Stats().ProbesSent), "ns/probe")
}
