package eval

import (
	"fmt"
	"net/netip"
	"time"

	"censysmap/internal/core"
	"censysmap/internal/engines"
	"censysmap/internal/interro"
	"censysmap/internal/protocols"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// This file is the adversarial evaluation (make adversarial): every engine —
// the core pipeline with its countermeasures enabled and the four baseline
// profiles — scans the same hostile universe (honeypot farms, tarpits, scan
// detectors, banner churn), and the harness reports who mislabels honeypots
// as ICS, who wastes records on tarpits, who gets blocked, and whose
// freshness collapses under banner churn. The core pipeline's own ledger
// (flagged honeypots, exhausted deadline budgets, deferred probes, scanner
// rotations) rides along so the countermeasures are auditable, not just
// their outcome.

// AdversarialProfile describes one hostile universe replay.
type AdversarialProfile struct {
	// Name labels the profile in tables.
	Name string
	// Prefix/Seed size and seed the universe.
	Prefix netip.Prefix
	Seed   uint64
	// Days is the replay length.
	Days int
	// CloudBlocks sizes the universe's dense cloud region.
	CloudBlocks int
	// HostDensity overrides the live-host fraction (0 = default).
	HostDensity float64
	// SweepScale compresses the baselines' sweep durations so every profile
	// completes at least one sweep inside the replay.
	SweepScale float64
	// Adversary is the hostile-substrate configuration. The core pipeline
	// runs with its shipped countermeasures (core.Config.ArmCountermeasures);
	// the baselines get none — that asymmetry is the experiment.
	Adversary simnet.AdversaryConfig
}

// DefaultAdversarialProfile returns the standard hostile universe: two
// honeypot farms, a mixed stall/drip tarpit population, detectors on a third
// of the /24s, and a quarter of ordinary hosts churning their banners daily.
func DefaultAdversarialProfile() AdversarialProfile {
	return AdversarialProfile{
		Name:        "hostile-mixed",
		Prefix:      netip.MustParsePrefix("10.96.0.0/21"),
		Seed:        97,
		Days:        10,
		CloudBlocks: 2,
		HostDensity: 0.10,
		SweepScale:  0.25,
		Adversary: simnet.AdversaryConfig{
			Seed:              13,
			HoneypotFarms:     2,
			TarpitRate:        0.08,
			TarpitDripRate:    0.5,
			DetectorRate:      0.35,
			DetectorThreshold: 60,
			DetectorBaseBlock: 6 * time.Hour,
			BannerChurnRate:   0.25,
			BannerChurnPeriod: 24 * time.Hour,
		},
	}
}

// AdversarialEngineRow is one engine's scorecard against the hostile
// universe.
type AdversarialEngineRow struct {
	Engine string
	// Records is the engine's unique current dataset size.
	Records int
	// HoneypotRecords are records pointing at honeypot-farm hosts;
	// HoneypotICS is the subset carrying an ICS protocol label — the paper's
	// §6.3 mislabeling, reproduced against a farm instead of the open
	// Internet.
	HoneypotRecords int
	HoneypotICS     int
	// TarpitRecords are records pointing at tarpit hosts (stall or drip);
	// none of them is a real service.
	TarpitRecords int
	// Services is |dataset ∩ ground truth| (live legitimate services);
	// Truth is the ground-truth size at measurement time.
	Services int
	Truth    int
	// MeanAgeHours is the mean age of the engine's current records.
	MeanAgeHours float64
	// ChurnRecords are truth-confirmed records on banner-churn hosts;
	// ChurnCurrent is the subset scanned within the current churn
	// generation — the rest carry a fingerprint the host no longer presents.
	ChurnRecords int
	ChurnCurrent int
	// DetectorBlocks is the cumulative number of detector blocks fired
	// against this engine (rotation-aware); BlockedNets is how many
	// (scanner, /24) blocks are still active at measurement time.
	DetectorBlocks int
	BlockedNets    int
}

// Coverage is ground-truth coverage.
func (r AdversarialEngineRow) Coverage() float64 {
	if r.Truth == 0 {
		return 0
	}
	return float64(r.Services) / float64(r.Truth)
}

// AdversarialPipelineStats is the core pipeline's countermeasure ledger.
type AdversarialPipelineStats struct {
	// HoneypotsFlagged / FarmsFlagged: hosts removed by the uniformity
	// detector and how many distinct farms they span.
	HoneypotsFlagged uint64
	FarmsFlagged     int
	// PseudoHosts includes drip tarpits caught by the pseudo-service filter.
	PseudoHosts int
	// Deadline budget accounting against tarpits.
	Deadline interro.DeadlineStats
	// Discovery's reaction to detector blocks.
	Deferred  uint64
	Backoffs  uint64
	Rotations uint64
}

// AdversarialResult is one profile's full scorecard.
type AdversarialResult struct {
	Profile   AdversarialProfile
	Substrate simnet.AdversaryStats
	Rows      []AdversarialEngineRow
	Pipeline  AdversarialPipelineStats
}

// RunAdversarial replays one profile with all five engines on the hostile
// universe and scores them.
func RunAdversarial(p AdversarialProfile) (AdversarialResult, error) {
	clk := simclock.New()
	ncfg := simnet.DefaultConfig()
	ncfg.Prefix = p.Prefix
	ncfg.Seed = p.Seed
	ncfg.CloudBlocks = p.CloudBlocks
	if p.HostDensity > 0 {
		ncfg.HostDensity = p.HostDensity
	}
	ncfg.WebProperties = 12
	ncfg.BaseLoss = 0
	ncfg.OutageRate = 0
	ncfg.GeoblockRate = 0
	ncfg.Adversary = p.Adversary
	net := simnet.New(ncfg, clk)

	ccfg := core.DefaultConfig()
	ccfg.CloudBlocks = p.CloudBlocks
	ccfg.ArmCountermeasures()
	m, err := core.New(ccfg, net)
	if err != nil {
		return AdversarialResult{}, err
	}
	m.Start()
	defer m.Stop()

	censys := engines.NewCoreAdapter("censysmap", m)
	var baselines []*engines.Baseline
	for _, bp := range engines.AllBaselineProfiles() {
		if p.SweepScale > 0 {
			bp.SweepDuration = time.Duration(float64(bp.SweepDuration) * p.SweepScale)
			if bp.RetainFor > 0 {
				bp.RetainFor = time.Duration(float64(bp.RetainFor) * p.SweepScale)
			}
		}
		b, err := engines.NewBaseline(bp, net, time.Hour)
		if err != nil {
			return AdversarialResult{}, err
		}
		defer b.Stop()
		baselines = append(baselines, b)
	}

	for day := 0; day < p.Days; day++ {
		clk.Advance(24 * time.Hour)
	}
	now := clk.Now()

	res := AdversarialResult{Profile: p, Substrate: net.AdversaryStats()}

	truth := make(map[recKey]bool)
	for _, ref := range net.LiveServices(now, false) {
		truth[recKey{ref.Addr, ref.Port, ref.Transport}] = true
	}
	gen := net.ChurnGeneration(now)

	all := []engines.Engine{censys}
	for _, b := range baselines {
		all = append(all, b)
	}
	for _, e := range all {
		row := AdversarialEngineRow{Engine: e.Name(), Truth: len(truth)}
		var ageSum time.Duration
		for _, r := range uniqueRecords(e.Records()) {
			row.Records++
			ageSum += now.Sub(r.LastScanned)
			h := net.HostAt(r.Addr)
			switch {
			case h == nil:
			case h.Honeypot:
				row.HoneypotRecords++
				if pr := protocols.Lookup(r.Protocol); pr != nil && pr.ICS {
					row.HoneypotICS++
				}
			case h.Tarpit:
				row.TarpitRecords++
			}
			if truth[keyOf(r)] {
				row.Services++
				if h != nil && h.BannerChurn {
					row.ChurnRecords++
					if net.ChurnGeneration(r.LastScanned) == gen {
						row.ChurnCurrent++
					}
				}
			}
		}
		if row.Records > 0 {
			row.MeanAgeHours = ageSum.Hours() / float64(row.Records)
		}
		row.DetectorBlocks = net.DetectorBlockEvents(e.Name())
		row.BlockedNets = net.BlockedNetworks(e.Name())
		res.Rows = append(res.Rows, row)
	}

	flagged := m.HoneypotHosts()
	farms := map[int]bool{}
	for _, a := range flagged {
		if h := net.HostAt(a); h != nil && h.Honeypot {
			farms[h.Farm] = true
		}
	}
	st := m.DiscoveryStats()
	res.Pipeline = AdversarialPipelineStats{
		HoneypotsFlagged: m.Stats().HoneypotsFlagged,
		FarmsFlagged:     len(farms),
		PseudoHosts:      m.PseudoHosts(),
		Deadline:         m.InterroDeadlineStats(),
		Deferred:         st.Deferred,
		Backoffs:         st.Backoffs,
		Rotations:        st.Rotations,
	}
	return res, nil
}

// Render formats the scorecard tables.
func (r AdversarialResult) Render() string {
	title := fmt.Sprintf(
		"Adversarial replay — profile %q (%s, %d days; %d farms / %d honeypots, %d tarpits (%d drip), %d detector nets, %d churn hosts)",
		r.Profile.Name, r.Profile.Prefix, r.Profile.Days,
		r.Substrate.Farms, r.Substrate.HoneypotHosts,
		r.Substrate.TarpitHosts, r.Substrate.DripTarpits,
		r.Substrate.DetectorNets, r.Substrate.ChurnHosts)
	headers := []string{"Engine", "Records", "Honeypot", "HP as ICS", "Tarpit",
		"Coverage", "Mean age (h)", "Churn fresh", "Blocks", "Blocked /24s"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Engine,
			fmt.Sprintf("%d", row.Records),
			fmt.Sprintf("%d", row.HoneypotRecords),
			fmt.Sprintf("%d", row.HoneypotICS),
			fmt.Sprintf("%d", row.TarpitRecords),
			fmt.Sprintf("%.0f%%", 100*row.Coverage()),
			fmt.Sprintf("%.1f", row.MeanAgeHours),
			pct(row.ChurnCurrent, row.ChurnRecords),
			fmt.Sprintf("%d", row.DetectorBlocks),
			fmt.Sprintf("%d", row.BlockedNets),
		})
	}
	out := renderTable(title, headers, rows)

	p := r.Pipeline
	out += renderTable("Pipeline countermeasure ledger (censysmap)",
		[]string{"Honeypots flagged", "Farms", "Pseudo hosts", "Read-cap exh.",
			"Handshake exh.", "Total exh.", "Deferred", "Backoffs", "Rotations"},
		[][]string{{
			fmt.Sprintf("%d", p.HoneypotsFlagged),
			fmt.Sprintf("%d", p.FarmsFlagged),
			fmt.Sprintf("%d", p.PseudoHosts),
			fmt.Sprintf("%d", p.Deadline.ReadCapExhausted),
			fmt.Sprintf("%d", p.Deadline.HandshakeExhausted),
			fmt.Sprintf("%d", p.Deadline.TotalExhausted),
			fmt.Sprintf("%d", p.Deferred),
			fmt.Sprintf("%d", p.Backoffs),
			fmt.Sprintf("%d", p.Rotations),
		}})
	return out
}
