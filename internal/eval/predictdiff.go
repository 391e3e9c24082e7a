package eval

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"censysmap/internal/core"
	"censysmap/internal/discovery"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// This file is the coverage-vs-footprint evaluation of the predictive
// scanning subsystem (make predict-diff): the same seeded universe is
// replayed twice — once with the predictive engine's budget zeroed
// ("exhaustive": every probe comes from the three discovery classes) and
// once with part of the background class's per-tick budget handed to the
// predictive engine ("predictive"). Both runs perform the identical seed
// scan, so the model trains identically; only the scheduling differs. The
// comparison is services found per probe at (approximately) equal footprint,
// plus precision/recall against ground truth and the daily coverage curve.
//
// A probe-level exclusion recorder rides along as the simnet path's observer
// hook: it never drops anything, but it counts every L4 probe and interrogation
// connection aimed inside an excluded prefix. The exclusion invariant — an
// excluded subtree can never emit a target — must hold at the wire, not just
// in the scheduler, so the assertion lives below the whole pipeline.

// PredictProfile describes one seeded universe replay.
type PredictProfile struct {
	// Name labels the profile in tables.
	Name string
	// Prefix/Seed size and seed the universe.
	Prefix netip.Prefix
	Seed   uint64
	// Days is the replay length.
	Days int
	// PredictBudgetPerTick is the predictive run's per-tick allocation
	// (carved out of the background class; the exhaustive run gets 0).
	PredictBudgetPerTick int
	// SeedScanFraction sizes the shared training seed scan.
	SeedScanFraction float64
	// CloudBlocks sizes the universe's dense cloud region.
	CloudBlocks int
	// HostDensity overrides the universe's live-host fraction (0 = default).
	// Denser universes give the cross-port/cross-/24 conditionals real
	// structure to learn.
	HostDensity float64
	// DeploymentPatterns is the fraction of non-cloud /24s generated from
	// shared operator templates (simnet.Config.DeploymentPatterns).
	DeploymentPatterns float64
	// BackgroundPortsPerIPPerDay budgets the 65K class.
	BackgroundPortsPerIPPerDay int
	// Excluded prefixes must never see a single probe in either run.
	Excluded []netip.Prefix
}

// DefaultPredictProfiles returns the two standard replay universes: a
// residential-style /23 with one small cloud block, and a cloud-heavy /23
// where dense /24s dominate (expansion-friendly topology).
func DefaultPredictProfiles() []PredictProfile {
	return []PredictProfile{
		{
			Name:                       "patterned-edge",
			Prefix:                     netip.MustParsePrefix("10.64.0.0/22"),
			Seed:                       11,
			Days:                       10,
			PredictBudgetPerTick:       400,
			SeedScanFraction:           0.06,
			CloudBlocks:                1,
			HostDensity:                0.25,
			DeploymentPatterns:         0.6,
			BackgroundPortsPerIPPerDay: 100,
			Excluded:                   []netip.Prefix{netip.MustParsePrefix("10.64.1.192/26")},
		},
		{
			Name:                       "cloud-heavy",
			Prefix:                     netip.MustParsePrefix("10.80.0.0/22"),
			Seed:                       29,
			Days:                       10,
			PredictBudgetPerTick:       400,
			SeedScanFraction:           0.06,
			CloudBlocks:                2,
			HostDensity:                0.30,
			DeploymentPatterns:         0.7,
			BackgroundPortsPerIPPerDay: 100,
			Excluded:                   []netip.Prefix{netip.MustParsePrefix("10.80.0.64/26")},
		},
	}
}

// exclusionRecorder is a simnet path observer that drops nothing and counts
// wire operations aimed inside excluded prefixes. Name-addressed web-property
// connections are out of scope: the opt-out policy governs address scanning.
type exclusionRecorder struct {
	excluded []netip.Prefix
	probes   atomic.Uint64 // OpProbe into an excluded prefix
	connects atomic.Uint64 // OpConnect into an excluded prefix
}

func (r *exclusionRecorder) Drop(sc simnet.Scanner, addr netip.Addr, op simnet.Op, seq uint64, now time.Time) simnet.Cause {
	if op == simnet.OpConnectName {
		return simnet.Delivered
	}
	for _, p := range r.excluded {
		if p.Contains(addr) {
			if op == simnet.OpProbe {
				r.probes.Add(1)
			} else {
				r.connects.Add(1)
			}
			break
		}
	}
	return simnet.Delivered
}

// PredictCurvePoint is one day's coverage-vs-footprint sample.
type PredictCurvePoint struct {
	Day int
	// Probes is the ledger's cumulative spend across all classes.
	Probes uint64
	// Services is |dataset ∩ ground truth| at the sample time.
	Services int
}

// PredictRunResult is one scheduler's replay outcome.
type PredictRunResult struct {
	Scheduler string
	// ProbesSpent is the ledger total (seed + discovery classes + predict).
	ProbesSpent uint64
	// Predict is the predict class's own accounting.
	Predict discovery.ClassTotals
	// SeedSpent is the one-time training scan's spend — identical across the
	// two schedulers by construction (same seed, same fraction).
	SeedSpent uint64
	// Services is |dataset ∩ ground truth| at the end of the replay.
	Services int
	// DatasetSize is the full dataset (pending rows excluded).
	DatasetSize int
	// Truth is the ground-truth live service count at the end.
	Truth int
	// ExcludedProbes / ExcludedConnects count wire operations into excluded
	// prefixes — the invariant requires both to be zero.
	ExcludedProbes   uint64
	ExcludedConnects uint64
	// Curve is the daily coverage-vs-footprint series.
	Curve []PredictCurvePoint
}

// Precision is the fraction of dataset records confirmed by ground truth.
func (r PredictRunResult) Precision() float64 {
	if r.DatasetSize == 0 {
		return 0
	}
	return float64(r.Services) / float64(r.DatasetSize)
}

// Recall is ground-truth coverage.
func (r PredictRunResult) Recall() float64 {
	if r.Truth == 0 {
		return 0
	}
	return float64(r.Services) / float64(r.Truth)
}

// PerTenKProbes is services found per 10k probe targets spent — the
// efficiency metric the schedulers compete on.
func (r PredictRunResult) PerTenKProbes() float64 {
	if r.ProbesSpent == 0 {
		return 0
	}
	return 10000 * float64(r.Services) / float64(r.ProbesSpent)
}

// PerTenKScheduled is the same metric over the scheduled budget only — the
// one-time training scan (identical in both runs) subtracted out, isolating
// what the competing schedulers did with the probes they actually chose.
func (r PredictRunResult) PerTenKScheduled() float64 {
	sched := r.ProbesSpent - r.SeedSpent
	if sched == 0 {
		return 0
	}
	return 10000 * float64(r.Services) / float64(sched)
}

// RunPredictScheduler replays one profile under one scheduler. predictive
// false zeroes the predict budget (the background class keeps its full
// per-tick allocation); true hands PredictBudgetPerTick of it to the
// predictive engine.
func RunPredictScheduler(p PredictProfile, predictive bool) (PredictRunResult, error) {
	clk := simclock.New()
	ncfg := simnet.DefaultConfig()
	ncfg.Prefix = p.Prefix
	ncfg.Seed = p.Seed
	ncfg.CloudBlocks = p.CloudBlocks
	if p.HostDensity > 0 {
		ncfg.HostDensity = p.HostDensity
	}
	ncfg.DeploymentPatterns = p.DeploymentPatterns
	ncfg.WebProperties = 12
	ncfg.BaseLoss = 0
	ncfg.OutageRate = 0
	ncfg.GeoblockRate = 0
	net := simnet.New(ncfg, clk)

	rec := &exclusionRecorder{excluded: p.Excluded}
	net.SetFaultInjector(rec)

	ccfg := core.DefaultConfig()
	ccfg.CloudBlocks = p.CloudBlocks
	ccfg.BackgroundPortsPerIPPerDay = p.BackgroundPortsPerIPPerDay
	ccfg.SeedScanFraction = p.SeedScanFraction
	ccfg.Excluded = p.Excluded
	if predictive {
		ccfg.PredictBudgetPerTick = p.PredictBudgetPerTick
	} else {
		ccfg.PredictBudgetPerTick = 0
	}
	m, err := core.New(ccfg, net)
	if err != nil {
		return PredictRunResult{}, err
	}
	m.Start()
	defer m.Stop()

	name := "exhaustive"
	if predictive {
		name = "predictive"
	}
	res := PredictRunResult{Scheduler: name}
	for day := 1; day <= p.Days; day++ {
		clk.Advance(24 * time.Hour)
		res.Curve = append(res.Curve, PredictCurvePoint{
			Day:      day,
			Probes:   m.Ledger().TotalSpent(),
			Services: truthIntersection(m, net, clk.Now()),
		})
	}

	res.ProbesSpent = m.Ledger().TotalSpent()
	res.Predict = m.Ledger().ClassTotals(discovery.ClassPredict)
	res.SeedSpent = m.Ledger().ClassTotals(discovery.ClassSeed).Spent
	res.Services = truthIntersection(m, net, clk.Now())
	res.DatasetSize = len(m.CurrentServices(false))
	res.Truth = len(net.LiveServices(clk.Now(), false))
	res.ExcludedProbes = rec.probes.Load()
	res.ExcludedConnects = rec.connects.Load()
	return res, nil
}

// truthIntersection counts dataset records that ground truth confirms live.
func truthIntersection(m *core.Map, net *simnet.Internet, now time.Time) int {
	truth := make(map[recKey]bool)
	for _, ref := range net.LiveServices(now, false) {
		truth[recKey{ref.Addr, ref.Port, ref.Transport}] = true
	}
	n := 0
	for _, r := range m.CurrentServices(false) {
		if truth[recKey{r.Addr, r.Port, r.Transport}] {
			n++
		}
	}
	return n
}

// PredictDiffResult pairs the two replays of one profile.
type PredictDiffResult struct {
	Profile    PredictProfile
	Exhaustive PredictRunResult
	Predictive PredictRunResult
}

// PredictDiff replays a profile under both schedulers.
func PredictDiff(p PredictProfile) (PredictDiffResult, error) {
	exh, err := RunPredictScheduler(p, false)
	if err != nil {
		return PredictDiffResult{}, err
	}
	pred, err := RunPredictScheduler(p, true)
	if err != nil {
		return PredictDiffResult{}, err
	}
	return PredictDiffResult{Profile: p, Exhaustive: exh, Predictive: pred}, nil
}

// Render formats the comparison and the coverage-vs-footprint curve.
func (r PredictDiffResult) Render() string {
	title := fmt.Sprintf("Predictive vs exhaustive scheduling — profile %q (%s, %d days, predict budget %d/tick)",
		r.Profile.Name, r.Profile.Prefix, r.Profile.Days, r.Profile.PredictBudgetPerTick)
	headers := []string{"Scheduler", "Probes", "Services", "Dataset", "Precision", "Recall", "Svc/10k probes", "Svc/10k sched.", "Predict spent/confirmed", "Excluded probes"}
	row := func(res PredictRunResult) []string {
		return []string{
			res.Scheduler,
			fmt.Sprintf("%d", res.ProbesSpent),
			fmt.Sprintf("%d", res.Services),
			fmt.Sprintf("%d", res.DatasetSize),
			fmt.Sprintf("%.0f%%", 100*res.Precision()),
			fmt.Sprintf("%.0f%%", 100*res.Recall()),
			fmt.Sprintf("%.3f", res.PerTenKProbes()),
			fmt.Sprintf("%.3f", res.PerTenKScheduled()),
			fmt.Sprintf("%d/%d", res.Predict.Spent, res.Predict.Confirmed),
			fmt.Sprintf("%d", res.ExcludedProbes+res.ExcludedConnects),
		}
	}
	out := renderTable(title, headers, [][]string{row(r.Exhaustive), row(r.Predictive)})

	curveHeaders := []string{"Day", "Exh. probes", "Exh. services", "Pred. probes", "Pred. services"}
	var curveRows [][]string
	for i := range r.Exhaustive.Curve {
		e := r.Exhaustive.Curve[i]
		pc := PredictCurvePoint{}
		if i < len(r.Predictive.Curve) {
			pc = r.Predictive.Curve[i]
		}
		curveRows = append(curveRows, []string{
			fmt.Sprintf("%d", e.Day),
			fmt.Sprintf("%d", e.Probes), fmt.Sprintf("%d", e.Services),
			fmt.Sprintf("%d", pc.Probes), fmt.Sprintf("%d", pc.Services),
		})
	}
	out += renderTable("Coverage vs footprint (cumulative probe targets -> truth services in dataset)",
		curveHeaders, curveRows)
	return out
}
