// Package eval implements the paper's evaluation (§6 and the appendices):
// for every table and figure it provides a function that runs the experiment
// against a shared synthetic universe and returns the same rows/series the
// paper reports. Absolute numbers scale with the universe; the shapes — who
// wins, by what rough factor, where the crossovers fall — are the
// reproduction targets (see EXPERIMENTS.md).
package eval

import (
	"cmp"
	"net/netip"
	"slices"
	"time"

	"censysmap/internal/core"
	"censysmap/internal/engines"
	"censysmap/internal/entity"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// LabConfig sizes the shared experiment universe.
type LabConfig struct {
	// Prefix scales the universe (default 10.0.0.0/19).
	Prefix netip.Prefix
	// Seed drives all generation.
	Seed uint64
	// WarmupDays runs all engines this long before measuring, so slow
	// sweeps (ZoomEye ~35 days) complete at least once and staleness
	// differences emerge.
	WarmupDays int
	// CloudBlocks sizes the dense cloud region.
	CloudBlocks int
	// BackgroundPortsPerIPPerDay budgets the 65K class. The paper uses
	// 100 (a full 65K cycle every ~9 months of continuous operation); labs
	// compress the cycle so a warmup covers at least one full pass.
	BackgroundPortsPerIPPerDay int
	// SweepScale multiplies the baselines' sweep durations, compressing
	// the paper's weekly/monthly cadences proportionally to the compressed
	// warmup so staleness differences still emerge.
	SweepScale float64
}

// DefaultLabConfig returns the configuration the benches use.
func DefaultLabConfig() LabConfig {
	return LabConfig{
		Prefix:                     netip.MustParsePrefix("10.0.0.0/20"),
		Seed:                       1,
		WarmupDays:                 40,
		CloudBlocks:                4,
		BackgroundPortsPerIPPerDay: 2000, // ~1.2 full 65K cycles per warmup
		SweepScale:                 1.0,
	}
}

// QuickLabConfig returns a small configuration for tests.
func QuickLabConfig() LabConfig {
	return LabConfig{
		Prefix:                     netip.MustParsePrefix("10.0.0.0/21"),
		Seed:                       1,
		WarmupDays:                 14,
		CloudBlocks:                2,
		BackgroundPortsPerIPPerDay: 5500, // ~1.2 cycles in 14 days
		SweepScale:                 0.3,
	}
}

// Lab is a shared universe with all five engines running on it.
type Lab struct {
	Cfg       LabConfig
	Net       *simnet.Internet
	Clk       *simclock.Sim
	Censys    *engines.CoreAdapter
	Baselines []*engines.Baseline
}

// NewLab builds the universe, starts every engine, and runs the warmup.
func NewLab(cfg LabConfig) (*Lab, error) {
	if cfg.Prefix.Bits() == 0 {
		cfg = DefaultLabConfig()
	}
	clk := simclock.New()
	ncfg := simnet.DefaultConfig()
	ncfg.Prefix = cfg.Prefix
	ncfg.Seed = cfg.Seed
	ncfg.CloudBlocks = cfg.CloudBlocks
	ncfg.WebProperties = 200
	net := simnet.New(ncfg, clk)

	ccfg := core.DefaultConfig()
	ccfg.CloudBlocks = cfg.CloudBlocks
	ccfg.BackgroundPortsPerIPPerDay = cfg.BackgroundPortsPerIPPerDay
	m, err := core.New(ccfg, net)
	if err != nil {
		return nil, err
	}
	m.Start()

	lab := &Lab{Cfg: cfg, Net: net, Clk: clk, Censys: engines.NewCoreAdapter("censysmap", m)}
	for _, p := range engines.AllBaselineProfiles() {
		if cfg.SweepScale > 0 {
			p.SweepDuration = time.Duration(float64(p.SweepDuration) * cfg.SweepScale)
			if p.RetainFor > 0 {
				p.RetainFor = time.Duration(float64(p.RetainFor) * cfg.SweepScale)
			}
		}
		b, err := engines.NewBaseline(p, net, time.Hour)
		if err != nil {
			return nil, err
		}
		lab.Baselines = append(lab.Baselines, b)
	}
	clk.Advance(time.Duration(cfg.WarmupDays) * 24 * time.Hour)
	return lab, nil
}

// Engines returns all engines, core first.
func (l *Lab) Engines() []engines.Engine {
	out := []engines.Engine{l.Censys}
	for _, b := range l.Baselines {
		out = append(out, b)
	}
	return out
}

// Now returns the current simulated time.
func (l *Lab) Now() time.Time { return l.Clk.Now() }

// LiveNow reports whether a record's service is actually up right now —
// the simulation's equivalent of the paper's follow-up ZGrab liveness scan.
func (l *Lab) LiveNow(r engines.Record) bool {
	slot := l.Net.SlotAt(r.Addr, r.Port, r.Transport)
	if slot == nil {
		// Pseudo-hosts answer on everything; records pointing at them are
		// "responsive" but are not legitimate services (the paper filters
		// them from ground truth).
		return false
	}
	return slot.AliveAt(l.Net.Epoch(), l.Now())
}

// CorrectLabel reports whether a record's protocol label matches ground
// truth (used by the ICS census).
func (l *Lab) CorrectLabel(r engines.Record) bool {
	slot := l.Net.SlotAt(r.Addr, r.Port, r.Transport)
	return slot != nil && slot.Spec.Protocol == r.Protocol
}

// GroundTruth returns all currently live legitimate services.
func (l *Lab) GroundTruth() []simnet.ServiceRef {
	return l.Net.LiveServices(l.Now(), false)
}

// recKey dedupes records by service location.
type recKey struct {
	addr      netip.Addr
	port      uint16
	transport entity.Transport
}

func keyOf(r engines.Record) recKey { return recKey{r.Addr, r.Port, r.Transport} }

// uniqueRecords dedupes an engine's dataset by location, keeping the newest,
// and returns the records sorted by location so seeded samplers over the
// list are reproducible.
func uniqueRecords(recs []engines.Record) []engines.Record {
	newest := make(map[recKey]engines.Record, len(recs))
	for _, r := range recs {
		if prev, ok := newest[keyOf(r)]; !ok || r.LastScanned.After(prev.LastScanned) {
			newest[keyOf(r)] = r
		}
	}
	out := make([]engines.Record, 0, len(newest))
	for _, r := range newest {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b engines.Record) int {
		if c := a.Addr.Compare(b.Addr); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Port, b.Port); c != 0 {
			return c
		}
		return cmp.Compare(a.Transport, b.Transport)
	})
	return out
}
