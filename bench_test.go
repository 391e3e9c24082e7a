package censysmap

// Ablation benches for the design choices DESIGN.md calls out (run
// `go test -bench=Ablation -benchmem`). The paper's tables and figures are
// rendered by cmd/benchtables (`make paper-tables`).

import (
	"net/netip"
	"strconv"
	"testing"
	"time"

	"censysmap/internal/core"
	"censysmap/internal/cqrs"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// ablationUniverse builds a small universe for pipeline ablations.
func ablationUniverse(seed uint64) (*simnet.Internet, *simclock.Sim) {
	cfg := simnet.DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix("10.0.0.0/22")
	cfg.Seed = seed
	cfg.CloudBlocks = 1
	cfg.WebProperties = 20
	clk := simclock.New()
	return simnet.New(cfg, clk), clk
}

// BenchmarkAblation_DeltaJournaling measures journal growth under delta
// encoding: bytes journaled per observation, and the fraction of refreshes
// that journal nothing. A full-record journal would write a snapshot-sized
// payload for every observation.
func BenchmarkAblation_DeltaJournaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, clk := ablationUniverse(1)
		cfg := core.DefaultConfig()
		cfg.CloudBlocks = 1
		m, err := core.New(cfg, net)
		if err != nil {
			b.Fatal(err)
		}
		m.Start()
		clk.Advance(5 * 24 * time.Hour)
		stats := m.JournalStats()
		obs, noChange := m.WriteStats()
		b.ReportMetric(float64(stats.SSDBytes+stats.HDDBytes)/float64(obs), "journal_B/obs")
		b.ReportMetric(100*float64(noChange)/float64(obs), "nochange_%")
		b.ReportMetric(float64(stats.Appends), "events")
	}
}

// BenchmarkAblation_SnapshotInterval sweeps the snapshot cadence K: small K
// bounds replay length but amplifies writes.
func BenchmarkAblation_SnapshotInterval(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run(strconv.Itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net, clk := ablationUniverse(1)
				cfg := core.DefaultConfig()
				cfg.CloudBlocks = 1
				cfg.SnapshotEvery = k
				m, err := core.New(cfg, net)
				if err != nil {
					b.Fatal(err)
				}
				m.Start()
				clk.Advance(5 * 24 * time.Hour)
				st := m.JournalStats()
				b.ReportMetric(float64(st.MaxReplayLen), "max_replay")
				b.ReportMetric(float64(st.SSDBytes+st.HDDBytes), "journal_B")
				b.ReportMetric(float64(st.Snapshots), "snapshots")
			}
		})
	}
}

// BenchmarkAblation_EvictionWindow sweeps the eviction grace window: shorter
// windows buy accuracy at the cost of churn-driven coverage loss (the §4.6
// trade-off).
func BenchmarkAblation_EvictionWindow(b *testing.B) {
	for _, hours := range []int{12, 72, 240} {
		b.Run(strconv.Itoa(hours)+"h", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net, clk := ablationUniverse(1)
				cfg := core.DefaultConfig()
				cfg.CloudBlocks = 1
				cfg.EvictAfter = time.Duration(hours) * time.Hour
				m, err := core.New(cfg, net)
				if err != nil {
					b.Fatal(err)
				}
				m.Start()
				clk.Advance(8 * 24 * time.Hour)
				// The §4.6 trade-off: a short window evicts fast, maximising
				// accuracy of the pending-inclusive dataset but generating
				// churny remove/re-add cycles (ticket noise); a long window
				// is calm but serves stale pending entries.
				recs := m.CurrentServices(true) // include pending: the user-facing view
				live := 0
				for _, r := range recs {
					slot := net.SlotAt(r.Addr, r.Port, r.Transport)
					if slot != nil && slot.AliveAt(net.Epoch(), clk.Now()) {
						live++
					}
				}
				removed := 0
				for _, id := range m.Journal().Entities() {
					for _, ev := range m.Journal().Events(id) {
						if ev.Kind == cqrs.KindServiceRemoved {
							removed++
						}
					}
				}
				if len(recs) > 0 {
					b.ReportMetric(100*float64(live)/float64(len(recs)), "accuracy_incl_pending_%")
				}
				b.ReportMetric(float64(removed), "removals")
			}
		})
	}
}

// BenchmarkAblation_Prediction compares tail-port coverage with the
// predictive engine on vs off, at equal background budgets.
func BenchmarkAblation_Prediction(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net, clk := ablationUniverse(1)
				cfg := core.DefaultConfig()
				cfg.CloudBlocks = 1
				cfg.DisablePrediction = !on
				cfg.SeedScanFraction = 0.10         // GPS-style training sample
				cfg.BackgroundPortsPerIPPerDay = 50 // starve the sweep; prediction must extend the seed
				m, err := core.New(cfg, net)
				if err != nil {
					b.Fatal(err)
				}
				m.Start()
				clk.Advance(8 * 24 * time.Hour)
				truth := net.LiveServices(clk.Now(), false)
				known := map[[2]any]bool{}
				for _, r := range m.CurrentServices(false) {
					known[[2]any{r.Addr, r.Port}] = true
				}
				hit := 0
				for _, t := range truth {
					if known[[2]any{t.Addr, t.Port}] {
						hit++
					}
				}
				b.ReportMetric(100*float64(hit)/float64(len(truth)), "coverage_%")
				b.ReportMetric(float64(m.Stats().PredictiveProbes), "pred_probes")
			}
		})
	}
}
