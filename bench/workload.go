package main

import (
	"fmt"
	"math"
	"net/netip"

	"censysmap/internal/core"
	"censysmap/internal/simnet"
	"censysmap/internal/telemetry"
)

// nominalSeconds is the --seconds value the table below is sized for: at
// that value the timed phases (scan, serve, persist) take about that long on
// the declared machine. Other values scale every operation count linearly.
const nominalSeconds = 20

// universeSeed seeds the simulated Internet of every run; --seed only draws
// the request schedule. One universe, because universes differ from each
// other by more than any bound could absorb: over seeds 1-10 coverage spread
// 5-9%, allocations per day 2-11% and the timings 15-35%, most of it from
// per-/24 draws (geoblocking, blocklisting, outages) in universes of 4 to
// 128 /24s.
const universeSeed = 1

// workload is one set of inputs to the five-phase script. The driver has no
// per-workload code: everything that differs between workloads is a field.
type workload struct {
	Name string
	Why  string

	// Universe.
	Prefix       string
	Density      float64
	MeanServices float64
	CloudBlocks  int
	Churn        float64

	// Predictive selects the predictive scheduler (default 400 probes per
	// tick) over the exhaustive one.
	Predictive bool

	WarmDays  int // simulated days run during set-up
	ScanDays  int // simulated days in the timed scan phase: at least eight chunks
	ChunkDays int // simulated days per chunk of the scan phase

	// Requests is the size of the request schedule. BatchPerTick of them are
	// served after every scan-phase tick, against caches that tick just
	// invalidated; whatever is left is served after the scan phase, against a
	// static map, in serveChunks equal chunks.
	Requests     int
	BatchPerTick int

	// Recovers is how many recoveries one persist chunk times, sized so that
	// persistChunks chunks of them take about three seconds.
	Recovers int
}

const (
	ticksPerDay   = 24
	setupRepeats  = 3 // set-up runs this often; setup_s is the median
	serveChunks   = 8
	persistChunks = 8 // after one more that is discarded
	serveClients  = 2
)

var workloads = []workload{
	{
		Name: "scan_sweep", Why: "sparse /18 swept exhaustively: discovery probing is four fifths of pipeline CPU; small store, so incremental saves reuse clean partitions",
		Prefix: "10.0.0.0/18", Density: 0.08, MeanServices: 1.9, CloudBlocks: 8, Churn: 0.35,
		WarmDays: 3, ScanDays: 8, ChunkDays: 1, Requests: 54000, Recovers: 16,
	},
	{
		Name: "scan_refresh", Why: "service-rich /22 refreshed daily: index upsert, CQRS apply and interrogation dominate; most services and allocation per host, every partition dirty every tick",
		Prefix: "10.0.0.0/22", Density: 0.9, MeanServices: 6, CloudBlocks: 1, Churn: 0.35,
		WarmDays: 3, ScanDays: 12, ChunkDays: 1, Requests: 27000, Recovers: 6,
	},
	{
		Name: "serve_live", Why: "the shipped configuration (prediction on): Recommend leads pipeline CPU, and every 60-request batch meets caches the preceding tick invalidated",
		Prefix: "10.0.0.0/20", Density: 0.5, MeanServices: 1.9, CloudBlocks: 4, Churn: 0.35,
		Predictive: true,
		WarmDays:   1, ScanDays: 8, ChunkDays: 1, Requests: 8 * ticksPerDay * 60, BatchPerTick: 60, Recovers: 7,
	},
	{
		Name: "recover", Why: "fast-churning all-cloud /22, 44 simulated days old when it is saved: most journal bytes and heap per service, HDD-tier history, 44 resident daily snapshots",
		Prefix: "10.0.0.0/22", Density: 0.4, MeanServices: 1.9, CloudBlocks: 4, Churn: 0.9,
		WarmDays: 12, ScanDays: 32, ChunkDays: 4, Requests: 45000, Recovers: 10,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled sizes the timed phases for a run of the given length. Set-up (the
// universe and the warm-up days) is not scaled: it defines the dataset.
func (w workload) scaled(seconds int) workload {
	f := float64(seconds) / nominalSeconds
	scale := func(n, least int) int {
		return max(int(math.Round(float64(n)*f)), least)
	}
	w.ScanDays = scale(w.ScanDays/w.ChunkDays, 1) * w.ChunkDays
	w.Recovers = scale(w.Recovers, 1)
	if w.BatchPerTick > 0 {
		w.Requests = w.ScanDays * ticksPerDay * w.BatchPerTick
	} else {
		w.Requests = scale(w.Requests, serveChunks)
	}
	return w
}

func (w workload) universe() simnet.Config {
	c := simnet.DefaultConfig()
	c.Prefix = netip.MustParsePrefix(w.Prefix)
	c.Seed = universeSeed
	c.HostDensity = w.Density
	c.MeanServices = w.MeanServices
	c.CloudBlocks = w.CloudBlocks
	c.ChurnFraction = w.Churn
	c.WebProperties = 100
	// No pseudo-hosts, and the pseudo filter out of reach: core counts found
	// services per host cumulatively, so with the filter on it flags ordinary
	// hosts after a few days and the dataset collapses (README, "Findings").
	c.PseudoHostRate = 0
	return c
}

func (w workload) pipeline() core.Config {
	c := core.DefaultConfig() // daily refresh, Shards 8, InterroWorkers 4
	c.CloudBlocks = w.CloudBlocks
	c.DisablePrediction = !w.Predictive
	c.PseudoServiceThreshold = math.MaxInt32
	c.Telemetry = telemetry.New() // on by default in censysmap.System
	return c
}
