package core

import (
	"net/netip"
	"time"

	"censysmap/internal/discovery"
	"censysmap/internal/interro"
	"censysmap/internal/telemetry"
)

// This file wires the Map into the telemetry registry (Config.Telemetry).
//
// The instrumentation strategy keeps the hot path cold:
//
//   - Everything the pipeline already counts (RunStats, discovery,
//     per-PoP interrogation, write-side, journal, search-cache counters) is
//     exported through CounterFunc/GaugeFunc bridges that read the existing
//     atomics at collect time — the per-task cost is zero.
//   - Event-driven instruments exist only where no source counter does:
//     per-phase batch volume, CQRS events by kind, time-to-discovery, and
//     trace spans.
//   - The paper-metric gauges (freshness, coverage, time-to-discovery) walk
//     the dataset and ground truth, so they run as OnCollect hooks — the
//     O(universe) work happens only when a snapshot is actually taken.
//
// Determinism: every timestamp comes off the simulated clock, per-phase
// histograms are observed serially by the tick coordinator, and striped
// counters are additive, so for a fixed seed the exported totals are
// identical across any Shards/InterroWorkers layout (per-shard and per-PoP
// labeled values partition differently, but their sums match; see the
// determinism suite in internal/chaos).

// phaseTaskBounds bucket the tasks-per-batch histograms.
var phaseTaskBounds = []float64{0, 1, 4, 16, 64, 256, 1024, 4096}

// ttdBounds bucket time-to-discovery in hours.
var ttdBounds = []float64{1, 2, 4, 8, 16, 24, 48, 72, 120, 240}

// freshnessBounds bucket dataset record age (now − LastSeen) in hours.
var freshnessBounds = []float64{1, 2, 4, 8, 16, 24, 48, 72}

// coreTel holds the Map's pre-resolved event-driven instruments. A nil
// *coreTel (telemetry disabled) makes every method a cheap nil-check no-op.
type coreTel struct {
	phaseTasks map[string]*telemetry.Histogram
	ttdHours   *telemetry.Histogram
}

// batch records one phase's batch volume. Called serially by the tick
// coordinator, so histogram observation order is deterministic.
func (t *coreTel) batch(phase string, tasks int) {
	if t == nil {
		return
	}
	t.phaseTasks[phase].Observe(float64(tasks))
}

// discovered records the time-to-discovery of a service born during the
// simulation. Called serially from the event-drain goroutine.
func (t *coreTel) discovered(ttd time.Duration) {
	if t == nil {
		return
	}
	t.ttdHours.Observe(ttd.Hours())
}

// attachTelemetry registers the Map's metric families on cfg.Telemetry and
// builds the trace sampler. Called once at the end of build; a nil registry
// leaves m.tel and m.tracer nil, which disables every instrument site.
func (m *Map) attachTelemetry() {
	reg := m.cfg.Telemetry
	if reg == nil {
		return
	}
	sample := m.cfg.TraceSample
	if sample == 0 {
		sample = telemetry.DefaultTraceSample
	}
	if sample > 0 {
		m.tracer = telemetry.NewTracer(sample)
	}

	tel := &coreTel{
		phaseTasks: make(map[string]*telemetry.Histogram),
		ttdHours: reg.Histogram("censys_paper_time_to_discovery_hours",
			"hours from a service's birth to its service_found event (services born mid-run)",
			ttdBounds),
	}
	phaseVec := reg.HistogramVec("censys_core_phase_tasks",
		"tasks drained per batch, by tick phase", "phase", phaseTaskBounds)
	// The one-time seed scan's batches, then Tick's phase table in order —
	// disabled phases too, so the family does not depend on the ablations.
	tel.phaseTasks["seed"] = phaseVec.With("seed")
	for _, ph := range m.phases {
		tel.phaseTasks[ph.name] = phaseVec.With(ph.name)
	}
	m.tel = tel

	// What the network path dropped, by cause — counted by the simnet itself.
	m.net.AttachTelemetry(reg)

	// Pipeline counters: collect-time bridges over RunStats.
	reg.CounterFunc("censys_core_ticks_total", "pipeline ticks executed", nil,
		func() float64 { return float64(m.ticks.Load()) })
	reg.CounterFunc("censys_core_interrogations_total", "interrogations launched", nil,
		func() float64 { return float64(m.interrogations.Load()) })
	reg.CounterFunc("censys_core_refresh_scans_total", "refresh re-interrogations", nil,
		func() float64 { return float64(m.refreshScans.Load()) })
	reg.CounterFunc("censys_core_predictive_probes_total", "predictive-engine probes", nil,
		func() float64 { return float64(m.ledger.ClassTotals(discovery.ClassPredict).Spent) })
	reg.CounterFunc("censys_core_reinjected_total", "evicted slots queued for re-injection", nil,
		func() float64 { return float64(m.reinjected.Load()) })
	reg.CounterFunc("censys_core_pseudo_filtered_total", "tasks suppressed by the pseudo-host filter", nil,
		func() float64 { return float64(m.pseudoFiltered.Load()) })
	reg.CounterFunc("censys_core_honeypot_gated_total", "tasks gated for hosts flagged as honeypots", nil,
		func() float64 { return float64(m.honeypotGated.Load()) })
	reg.GaugeFunc("censys_core_pseudo_hosts", "hosts currently flagged pseudo", nil,
		func() float64 { return float64(m.PseudoHosts()) })

	// Discovery engine counters by result.
	for _, b := range []struct {
		result string
		read   func(discovery.Stats) uint64
	}{
		{"sent", func(s discovery.Stats) uint64 { return s.ProbesSent }},
		{"open", func(s discovery.Stats) uint64 { return s.OpenResponses }},
		{"closed", func(s discovery.Stats) uint64 { return s.ClosedResponse }},
		{"dropped", func(s discovery.Stats) uint64 { return s.Dropped }},
		{"excluded", func(s discovery.Stats) uint64 { return s.Excluded }},
	} {
		read := b.read
		reg.CounterFunc("censys_discovery_probes_total",
			"discovery probes, by result", map[string]string{"result": b.result},
			func() float64 { return float64(read(m.disc.Stats())) })
	}
	reg.CounterFunc("censys_discovery_cycles_total",
		"scan-class coverage cycles completed", nil,
		func() float64 { return float64(m.disc.Stats().CyclesComplete) })

	// Predictive scanning: budget-ledger accounting per scan class, the
	// predict class's precision, and the model's resident footprint. All
	// bridges over the ledger and the predictor's own counters.
	for _, class := range m.ledger.Classes() {
		class := class
		reg.CounterFunc("censys_predict_budget_probes_total",
			"probe targets accounted by the budget ledger, by class and result",
			map[string]string{"class": class, "result": "spent"},
			func() float64 { return float64(m.ledger.ClassTotals(class).Spent) })
		reg.CounterFunc("censys_predict_budget_probes_total",
			"probe targets accounted by the budget ledger, by class and result",
			map[string]string{"class": class, "result": "confirmed"},
			func() float64 { return float64(m.ledger.ClassTotals(class).Confirmed) })
		reg.GaugeFunc("censys_predict_budget_efficiency",
			"confirmed/spent probe targets, by ledger class",
			map[string]string{"class": class},
			func() float64 { return m.ledger.ClassTotals(class).Efficiency() })
	}
	reg.GaugeFunc("censys_predict_precision",
		"fraction of predictive probes that found an open service", nil,
		func() float64 { return m.ledger.ClassTotals(discovery.ClassPredict).Efficiency() })
	reg.GaugeFunc("censys_predict_reinject_queue",
		"evicted services queued for re-injection", nil,
		func() float64 { return float64(m.predictor.ModelStats().PendingReinjections) })
	reg.GaugeFunc("censys_predict_model_hosts",
		"hosts resident in the predictive model", nil,
		func() float64 { return float64(m.predictor.ModelStats().KnownHosts) })
	reg.GaugeFunc("censys_predict_tracked_prefixes",
		"/24 leaves resident in the prefix-density topology", nil,
		func() float64 { return float64(m.predictor.ModelStats().TrackedPrefixes) })
	reg.GaugeFunc("censys_predict_suggested_resident",
		"suggestions inside their cooldown window (bounded book)", nil,
		func() float64 { return float64(m.predictor.ModelStats().SuggestedResident) })

	// Per-PoP interrogation outcomes.
	for _, pop := range m.pops {
		in := m.inter[pop.Name]
		popName := pop.Name
		for _, b := range []struct {
			outcome string
			read    func(interro.Stats) uint64
		}{
			{"attempt", func(s interro.Stats) uint64 { return s.Attempts }},
			{"no_contact", func(s interro.Stats) uint64 { return s.NoContact }},
			{"identified", func(s interro.Stats) uint64 { return s.Identified }},
			{"unknown", func(s interro.Stats) uint64 { return s.Unknown }},
		} {
			read := b.read
			reg.CounterFunc("censys_interro_outcomes_total",
				"interrogation outcomes, by PoP",
				map[string]string{"pop": popName, "outcome": b.outcome},
				func() float64 { return float64(read(in.Stats())) })
		}
		// Deadline-budget exhaustion per PoP and scope (tarpit defense).
		for _, b := range []struct {
			scope string
			read  func(interro.DeadlineStats) uint64
		}{
			{"read_cap", func(s interro.DeadlineStats) uint64 { return s.ReadCapExhausted }},
			{"handshake", func(s interro.DeadlineStats) uint64 { return s.HandshakeExhausted }},
			{"total", func(s interro.DeadlineStats) uint64 { return s.TotalExhausted }},
		} {
			read := b.read
			reg.CounterFunc("censys_interro_deadline_exhausted_total",
				"interrogation deadline budgets exhausted, by PoP and scope",
				map[string]string{"pop": popName, "scope": b.scope},
				func() float64 { return float64(read(in.DeadlineStats())) })
		}
		reg.CounterFunc("censys_interro_deadline_virtual_ms_total",
			"virtual milliseconds charged against interrogation budgets, by PoP",
			map[string]string{"pop": popName},
			func() float64 { return float64(in.DeadlineStats().VirtualMillis) })
	}

	// Adversarial-substrate defenses: adaptive discovery backoff and the
	// honeypot uniformity filter.
	reg.CounterFunc("censys_adversarial_deferred_probes_total",
		"discovery probes deferred by adaptive per-/24 backoff", nil,
		func() float64 { return float64(m.disc.Stats().Deferred) })
	reg.CounterFunc("censys_adversarial_backoff_total",
		"adaptive backoff events (a /24 crossed the drop-streak threshold)", nil,
		func() float64 { return float64(m.disc.Stats().Backoffs) })
	reg.CounterFunc("censys_adversarial_rotations_total",
		"scanner identity rotations triggered by accumulated backoffs", nil,
		func() float64 { return float64(m.disc.Stats().Rotations) })
	reg.GaugeFunc("censys_adversarial_backoff_networks",
		"/24 networks currently backed off", nil,
		func() float64 { return float64(m.disc.ActiveBackoffs()) })
	reg.CounterFunc("censys_adversarial_honeypots_flagged_total",
		"hosts flagged by the honeypot-farm uniformity detector", nil,
		func() float64 { return float64(m.honeypotsFlagged.Load()) })
	reg.GaugeFunc("censys_adversarial_honeypot_hosts",
		"hosts currently flagged as honeypots", nil,
		func() float64 { return float64(len(m.HoneypotHosts())) })

	// Search: result-cache and plan-cache effectiveness, postings footprint.
	reg.CounterFunc("censys_search_result_cache_total", "query result-cache probes, by outcome",
		map[string]string{"outcome": "hit"},
		func() float64 { return float64(m.index.Stats().Hits) })
	reg.CounterFunc("censys_search_result_cache_total", "query result-cache probes, by outcome",
		map[string]string{"outcome": "miss"},
		func() float64 { return float64(m.index.Stats().Misses) })
	reg.CounterFunc("censys_search_plan_cache_total", "compiled-plan cache probes, by outcome",
		map[string]string{"outcome": "hit"},
		func() float64 { return float64(m.index.Stats().PlanHits) })
	reg.CounterFunc("censys_search_plan_cache_total", "compiled-plan cache probes, by outcome",
		map[string]string{"outcome": "miss"},
		func() float64 { return float64(m.index.Stats().PlanMisses) })
	reg.GaugeFunc("censys_search_cache_entries", "resident result-cache entries", nil,
		func() float64 { return float64(m.index.Stats().Entries) })
	reg.GaugeFunc("censys_search_postings_entries",
		"resident postings + numeric column entries across partitions", nil,
		func() float64 { return float64(m.index.PostingsEntries()) })

	// Storage engine: recovery counters (zero on a never-crashed map, so
	// the family's presence is layout- and history-invariant) plus the
	// degraded-mode gauges.
	m.storageMetrics.Register(reg)
	reg.GaugeFunc("censys_degraded",
		"1 when storage recovery quarantined partitions and the map serves degraded results", nil,
		func() float64 {
			if m.Degraded() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("censys_storage_quarantined_partitions",
		"journal partitions currently quarantined", nil,
		func() float64 { return float64(len(m.quarParts)) })

	// Journal tiering, aggregated (per-partition counters are registered by
	// the processor's AttachTelemetry).
	reg.GaugeFunc("censys_journal_ssd_events", "events on the SSD tier: each row's newest snapshot onward, or the whole row before its first", nil,
		func() float64 { return float64(m.processor.Journal().Stats().SSDEvents) })
	reg.GaugeFunc("censys_journal_hdd_events", "events on the HDD tier: each row's history before its newest snapshot", nil,
		func() float64 { return float64(m.processor.Journal().Stats().HDDEvents) })

	// Paper-metric gauges (§5): freshness, coverage, dataset size. These walk
	// the dataset and ground truth, so they run only at collect time.
	freshness := reg.GaugeHistogram("censys_paper_freshness_hours",
		"age (now − last_seen) of every current dataset record, in hours", freshnessBounds)
	coverage := reg.Gauge("censys_paper_coverage_ratio",
		"fraction of ground-truth live services present in the dataset")
	datasetSize := reg.Gauge("censys_paper_dataset_services",
		"service records currently in the dataset (pending excluded)")
	truthSize := reg.Gauge("censys_paper_truth_services",
		"ground-truth live services in the simulated universe")
	reg.OnCollect(func(now time.Time) {
		recs := m.CurrentServices(false)
		ages := make([]float64, len(recs))
		have := make(map[slotKey]bool, len(recs))
		for i, r := range recs {
			ages[i] = now.Sub(r.LastSeen).Hours()
			have[slotKey{r.Addr, r.Port, r.Transport}] = true
		}
		freshness.Set(ages)
		datasetSize.Set(float64(len(recs)))

		truth := m.net.LiveServices(now, false)
		truthSize.Set(float64(len(truth)))
		covered := 0
		for _, ref := range truth {
			if have[slotKey{ref.Addr, ref.Port, ref.Transport}] {
				covered++
			}
		}
		if len(truth) > 0 {
			coverage.Set(float64(covered) / float64(len(truth)))
		} else {
			coverage.Set(0)
		}
	})
}

// observeFound is the TTD hook run by consumeEvent for service_found
// events: it attributes discovery latency for services born mid-run (slots
// predating the simulation have no meaningful birth-to-discovery interval).
func (m *Map) observeFound(addr netip.Addr, key slotKey, at time.Time) {
	if m.tel == nil {
		return
	}
	slot := m.net.SlotAt(addr, key.port, key.transport)
	if slot != nil && slot.Birth.After(m.net.Epoch()) {
		m.tel.discovered(at.Sub(slot.Birth))
	}
}

// Metrics returns the registry the Map reports into (nil when disabled).
func (m *Map) Metrics() *telemetry.Registry { return m.cfg.Telemetry }

// MetricsSnapshot collects a deterministic point-in-time view of every
// registered family, stamped with the simulated clock. Safe to call with
// telemetry disabled (returns an empty snapshot).
func (m *Map) MetricsSnapshot() telemetry.Snapshot {
	return m.cfg.Telemetry.Snapshot(m.clock.Now())
}

// Traces returns the sampled per-address pipeline spans collected so far.
func (m *Map) Traces() []telemetry.Span { return m.tracer.Spans() }

// traceEvent appends a span step for a sampled address. The detail string is
// only built for sampled targets, so the untraced hot path pays one hash.
func (m *Map) traceEvent(addr netip.Addr, stage, detail string, now time.Time) {
	m.tracer.Event(addr.String(), stage, detail, now)
}

// attemptDetail renders interrogation outcome detail for a span step.
func attemptDetail(ok bool, pop string) string {
	if ok {
		return "ok pop=" + pop
	}
	return "fail pop=" + pop
}
