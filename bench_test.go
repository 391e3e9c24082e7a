package censysmap

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`), reporting each experiment's
// headline numbers as benchmark metrics, plus ablation benches for the
// design choices DESIGN.md calls out. `cmd/benchtables` prints the full
// rendered tables.

import (
	"net/netip"
	"strconv"
	"sync"
	"testing"
	"time"

	"censysmap/internal/core"
	"censysmap/internal/cqrs"
	"censysmap/internal/engines"
	"censysmap/internal/eval"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

var (
	benchLabOnce sync.Once
	benchLab     *eval.Lab
	benchLabErr  error
)

// lab builds the shared experiment universe once (a 14-simulated-day warmup
// of all five engines).
func lab(b *testing.B) *eval.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLab, benchLabErr = eval.NewLab(eval.QuickLabConfig())
	})
	if benchLabErr != nil {
		b.Fatal(benchLabErr)
	}
	return benchLab
}

func BenchmarkTable1_PortTierCoverage(b *testing.B) {
	l := lab(b)
	var res eval.Table1Result
	for i := 0; i < b.N; i++ {
		res = eval.Table1(l)
	}
	for e, name := range res.Engines {
		b.ReportMetric(100*res.Coverage[0][e], name+"_top10_%")
		b.ReportMetric(100*res.Coverage[2][e], name+"_all65k_%")
	}
}

func BenchmarkTable2_CoverageAccuracy(b *testing.B) {
	l := lab(b)
	var rows []eval.Table2Row
	for i := 0; i < b.N; i++ {
		rows = eval.Table2(l)
	}
	for _, r := range rows {
		b.ReportMetric(100*r.PctAccurate, r.Engine+"_accurate_%")
		b.ReportMetric(float64(r.NumAccurate), r.Engine+"_accurate_n")
	}
}

func BenchmarkTable3_CountryProtocol(b *testing.B) {
	l := lab(b)
	var res eval.Table3Result
	for i := 0; i < b.N; i++ {
		res = eval.Table3(l)
	}
	for i, cat := range res.Categories {
		for e, name := range res.Engines {
			if name == "censysmap" || name == "shodan" {
				b.ReportMetric(100*res.Coverage[i][e], name+"_"+cat+"_%")
			}
		}
	}
}

func BenchmarkTable4_ICS(b *testing.B) {
	l := lab(b)
	var res eval.Table4Result
	for i := 0; i < b.N; i++ {
		res = eval.Table4(l)
	}
	// Aggregate over/under-reporting factor per engine.
	for _, e := range res.Engines {
		acc, rep := 0, 0
		for _, proto := range res.Protocols {
			acc += res.Cells[proto][e].Accurate
			rep += res.Cells[proto][e].Reported
		}
		b.ReportMetric(float64(acc), e+"_accurate")
		b.ReportMetric(float64(rep), e+"_reported")
	}
}

func BenchmarkTable5_TimeToDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// TTD mutates its lab, so it gets a fresh one per iteration.
		l, err := eval.NewLab(eval.QuickLabConfig())
		if err != nil {
			b.Fatal(err)
		}
		cfg := eval.TTDConfig{Honeypots: 25, StaggerEvery: 8 * time.Hour,
			ObserveFor: 8 * 24 * time.Hour}
		res := eval.Table5(l, cfg, []engines.Engine{l.Censys, l.Baselines[0]})
		b.ReportMetric(res.OverallMean["censysmap"], "censysmap_mean_h")
		b.ReportMetric(res.OverallMedian["censysmap"], "censysmap_median_h")
		b.ReportMetric(res.OverallMean["shodan"], "shodan_mean_h")
		b.ReportMetric(res.OverallMedian["shodan"], "shodan_median_h")
	}
}

func BenchmarkFigure2_Freshness(b *testing.B) {
	l := lab(b)
	var res eval.FreshnessResult
	for i := 0; i < b.N; i++ {
		res = eval.Figure2(l)
	}
	for i, name := range res.Engines {
		b.ReportMetric(res.AgesHours[i][4], name+"_p50_age_h")
	}
}

func BenchmarkFigure3_Overlap(b *testing.B) {
	l := lab(b)
	var res eval.OverlapResult
	for i := 0; i < b.N; i++ {
		res = eval.Figure3(l)
	}
	ci := 0
	for i, n := range res.Engines {
		if n == "censysmap" {
			ci = i
		}
	}
	for i, n := range res.Engines {
		if i != ci {
			b.ReportMetric(100*res.Matrix[ci][i], "censys_covers_"+n+"_%")
			b.ReportMetric(100*res.Matrix[i][ci], n+"_covers_censys_%")
		}
	}
}

func BenchmarkFigure4_PortPopulation(b *testing.B) {
	l := lab(b)
	var res eval.PortPopulationResult
	for i := 0; i < b.N; i++ {
		res = eval.Figure4(l)
	}
	top10 := 0
	for i := 0; i < 10 && i < len(res.Counts); i++ {
		top10 += res.Counts[i]
	}
	b.ReportMetric(float64(res.DistinctPorts), "distinct_ports")
	b.ReportMetric(100*float64(top10)/float64(res.TotalServices), "top10_share_%")
}

func BenchmarkFigure5_SampleSize(b *testing.B) {
	l := lab(b)
	var res eval.SampleSizeResult
	for i := 0; i < b.N; i++ {
		res = eval.Figure5(l, l.Engines()[1], 300)
	}
	for i, n := range res.SampleSizes {
		if n == 50 || n == 5 {
			b.ReportMetric(res.StdDev[i], "stddev_n"+itoa(n))
		}
	}
}

func itoa(n int) string {
	if n == 5 {
		return "5"
	}
	return "50"
}

// ---- ablation benches (design choices from DESIGN.md) ----

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
		net, _ := ablationUniverse(1)
		cfg := core.DefaultConfig()
		cfg.CloudBlocks = 1
		m, err := core.New(cfg, net)
		if err != nil {
			b.Fatal(err)
		}
		m.Run(5 * 24 * time.Hour)
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
				net, _ := ablationUniverse(1)
				cfg := core.DefaultConfig()
				cfg.CloudBlocks = 1
				cfg.SnapshotEvery = k
				m, err := core.New(cfg, net)
				if err != nil {
					b.Fatal(err)
				}
				m.Run(5 * 24 * time.Hour)
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
				m.Run(8 * 24 * time.Hour)
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
				m.Run(8 * 24 * time.Hour)
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
