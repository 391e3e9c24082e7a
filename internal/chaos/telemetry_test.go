package chaos

import (
	"encoding/json"
	"testing"

	"censysmap/internal/simnet"
	"censysmap/internal/telemetry"
)

// telemetrySpec is the Lab spec with telemetry attached: a registry, full
// tracing (mod 1), and a mild fault mix so the chaos counters move.
func telemetrySpec(shards, workers int) RunSpec {
	spec := Lab(77, preset("mild", 9), 30)
	spec.Pipeline.Shards = shards
	spec.Pipeline.InterroWorkers = workers
	spec.Pipeline.Telemetry = telemetry.New()
	spec.Pipeline.TraceSample = 1
	return spec
}

// TestTelemetryDeterministicSameLayout: two runs of the same spec produce
// byte-identical metric snapshots and trace spans.
func TestTelemetryDeterministicSameLayout(t *testing.T) {
	snaps := make([]string, 2)
	traces := make([]int, 2)
	for i := range snaps {
		r, err := Complete(telemetrySpec(4, 2))
		if err != nil {
			t.Fatal(err)
		}
		snap := r.Map.MetricsSnapshot()
		text := snap.PrometheusText()
		j, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = text + "\n" + string(j)
		traces[i] = len(r.Map.Traces())
		r.Map.Stop()
	}
	if snaps[0] != snaps[1] {
		t.Fatal("same seed, same layout: metric snapshots differ")
	}
	if traces[0] != traces[1] || traces[0] == 0 {
		t.Fatalf("trace span counts: %d vs %d (want equal, nonzero)", traces[0], traces[1])
	}
}

// TestTelemetryDeterministicAcrossLayouts: the same seed under different
// Shards/InterroWorkers layouts yields identical counter totals for every
// family (per-shard/per-partition labels split differently, but sums match),
// identical paper gauges, and identical trace spans.
func TestTelemetryDeterministicAcrossLayouts(t *testing.T) {
	layouts := [][2]int{{1, 1}, {8, 4}, {3, 2}}
	type result struct {
		snap  telemetry.Snapshot
		spans []telemetry.Span
		drops pathStats
	}
	var results []result
	for _, l := range layouts {
		r, err := Complete(telemetrySpec(l[0], l[1]))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, result{
			snap:  r.Map.MetricsSnapshot(),
			spans: r.Map.Traces(),
			drops: drops(r.Net),
		})
		r.Map.Stop()
	}
	base := results[0]
	// Families whose label sets are layout-dependent: totals must still match.
	totalFamilies := []string{
		"censys_cqrs_events_total",
		"censys_journal_appends_total",
		"censys_journal_snapshots_total",
		"censys_simnet_drops_total",
		"censys_interro_outcomes_total",
		"censys_interro_deadline_exhausted_total",
		"censys_interro_deadline_virtual_ms_total",
		"censys_adversarial_deferred_probes_total",
		"censys_adversarial_backoff_total",
		"censys_adversarial_rotations_total",
		"censys_adversarial_honeypots_flagged_total",
		"censys_discovery_probes_total",
		"censys_core_interrogations_total",
		"censys_core_pseudo_filtered_total",
		"censys_predict_budget_probes_total",
		"censys_cqrs_observations_total",
		"censys_cqrs_nochange_total",
		"censys_storage_records_verified_total",
		"censys_storage_checksum_failures_total",
		"censys_storage_tails_truncated_total",
		"censys_storage_snapshots_rebuilt_total",
		"censys_storage_partitions_quarantined_total",
		"censys_storage_checkpoint_fallbacks_total",
	}
	for i, res := range results[1:] {
		for _, fam := range totalFamilies {
			if got, want := familyTotal(res.snap, fam), familyTotal(base.snap, fam); got != want {
				t.Errorf("layout %v: %s total = %v, want %v",
					layouts[i+1], fam, got, want)
			}
		}
		// Paper gauges are derived from the dataset, which the differential
		// contract already pins; they must agree exactly.
		for _, g := range []string{
			"censys_paper_coverage_ratio",
			"censys_paper_dataset_services",
			"censys_paper_truth_services",
			"censys_predict_precision",
			"censys_predict_reinject_queue",
			"censys_predict_model_hosts",
			"censys_predict_tracked_prefixes",
			"censys_predict_suggested_resident",
		} {
			gv, _ := metric(res.snap, g, nil)
			bv, _ := metric(base.snap, g, nil)
			if gv.Value != bv.Value {
				t.Errorf("layout %v: %s = %v, want %v", layouts[i+1], g, gv.Value, bv.Value)
			}
		}
		ttd, _ := metric(res.snap, "censys_paper_time_to_discovery_hours", nil)
		bttd, _ := metric(base.snap, "censys_paper_time_to_discovery_hours", nil)
		if ttd.Count != bttd.Count || ttd.Sum != bttd.Sum {
			t.Errorf("layout %v: TTD count/sum = %d/%v, want %d/%v",
				layouts[i+1], ttd.Count, ttd.Sum, bttd.Count, bttd.Sum)
		}
		if res.drops != base.drops {
			t.Errorf("layout %v: path drops %+v, want %+v", layouts[i+1], res.drops, base.drops)
		}
		if len(res.spans) != len(base.spans) {
			t.Errorf("layout %v: %d spans, want %d", layouts[i+1], len(res.spans), len(base.spans))
			continue
		}
		for s := range res.spans {
			a, b := res.spans[s], base.spans[s]
			if a.Target != b.Target || len(a.Events) != len(b.Events) {
				t.Errorf("layout %v: span %s (%d events) vs %s (%d events)",
					layouts[i+1], a.Target, len(a.Events), b.Target, len(b.Events))
				continue
			}
			for e := range a.Events {
				if a.Events[e] != b.Events[e] {
					t.Errorf("layout %v: span %s event %d: %+v vs %+v",
						layouts[i+1], a.Target, e, a.Events[e], b.Events[e])
					break
				}
			}
		}
	}
}

// TestDifferentialUnchangedByInstrumentation: attaching a registry and full
// tracing must not perturb the pipeline — the instrumented run's external
// Observation is identical to the uninstrumented run's.
func TestDifferentialUnchangedByInstrumentation(t *testing.T) {
	bare := Lab(21, preset("mild", 4), 25)
	instr := Lab(21, preset("mild", 4), 25)
	instr.Pipeline.Telemetry = telemetry.New()
	instr.Pipeline.TraceSample = 1

	rb, err := Complete(bare)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := Complete(instr)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := Observe(rb.Map)
	if err != nil {
		t.Fatal(err)
	}
	oi, err := Observe(ri.Map)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(ob, oi); len(d) != 0 {
		t.Fatalf("instrumentation changed the run: %v", d)
	}
	rb.Map.Stop()
	ri.Map.Stop()
}

// TestChaosCountersSingleSource: the map's censys_simnet_drops_total family
// reads the network's own drop counters — a second registry attached to the
// same network reads the same values, cause by cause — and injected faults
// are counted there like any other cause.
func TestChaosCountersSingleSource(t *testing.T) {
	spec := telemetrySpec(4, 2)
	r, err := Complete(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Map.Stop()
	st := drops(r.Net)
	if injected(st) == 0 {
		t.Fatal("mild fault mix injected nothing; test universe too quiet")
	}
	snap := r.Map.MetricsSnapshot()
	var sum uint64
	for c := simnet.Delivered + 1; c < simnet.NumCauses; c++ {
		v, ok := metric(snap, "censys_simnet_drops_total", map[string]string{"cause": c.String()})
		if !ok {
			t.Fatalf("censys_simnet_drops_total{cause=%q} missing", c)
		}
		if uint64(v.Value) != st[c] {
			t.Errorf("cause %v: map metric %v != network counter %d", c, v.Value, st[c])
		}
		sum += st[c]
	}
	if got := familyTotal(snap, "censys_simnet_drops_total"); uint64(got) != sum {
		t.Errorf("family total %v != summed causes %d", got, sum)
	}
}

// TestStorageTelemetryDeterministic: two identical crash-to-disk, corrupt,
// resume cycles expose byte-identical censys_storage_* counters and the same
// censys_degraded gauge — the storage metrics are as deterministic as the
// dataset itself.
func TestStorageTelemetryDeterministic(t *testing.T) {
	storageFamilies := []string{
		"censys_storage_records_verified_total",
		"censys_storage_checksum_failures_total",
		"censys_storage_tails_truncated_total",
		"censys_storage_snapshots_rebuilt_total",
		"censys_storage_partitions_quarantined_total",
		"censys_storage_checkpoint_fallbacks_total",
	}
	run := func() (map[string]float64, float64, float64) {
		r, err := Start(diskSpec(0xE5))
		if err != nil {
			t.Fatal(err)
		}
		r.Step(diskCrashTick)
		dir := t.TempDir()
		if err := r.CrashToDisk(dir); err != nil {
			t.Fatal(err)
		}
		faults := DiskFaults{Seed: 0xE5, DeltaFlips: 1, SnapshotFlips: 1, TornTails: 1,
			Truncations: 1, MissingFiles: 1, CheckpointFlip: true}
		if _, err := CorruptDisk(dir, faults); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ResumeFromDisk(dir); err != nil {
			t.Fatal(err)
		}
		defer r.Map.Stop()
		snap := r.Map.MetricsSnapshot()
		totals := map[string]float64{}
		for _, fam := range storageFamilies {
			totals[fam] = familyTotal(snap, fam)
		}
		deg, _ := metric(snap, "censys_degraded", nil)
		quar, _ := metric(snap, "censys_storage_quarantined_partitions", nil)
		return totals, deg.Value, quar.Value
	}
	t1, d1, q1 := run()
	t2, d2, q2 := run()
	for _, fam := range storageFamilies {
		if t1[fam] != t2[fam] {
			t.Errorf("%s: %v vs %v across identical runs", fam, t1[fam], t2[fam])
		}
	}
	if d1 != d2 || d1 != 1 {
		t.Errorf("censys_degraded = %v / %v, want 1 on both runs", d1, d2)
	}
	if q1 != q2 || q1 == 0 {
		t.Errorf("censys_storage_quarantined_partitions = %v / %v, want equal nonzero", q1, q2)
	}
	if t1["censys_storage_checksum_failures_total"] == 0 {
		t.Error("checksum failures counter did not move under an every-class schedule")
	}
	if t1["censys_storage_partitions_quarantined_total"] == 0 {
		t.Error("quarantine counter did not move under an every-class schedule")
	}
}

// TestTelemetrySurvivesCrashRecovery: a crash+resume over a surviving
// registry re-binds the collect-time bridges to the rebuilt pipeline, so
// post-resume snapshots reflect the live Map, and the differential contract
// still holds with instrumentation on.
func TestTelemetrySurvivesCrashRecovery(t *testing.T) {
	spec := telemetrySpec(4, 2)
	straight, err := Complete(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer straight.Map.Stop()

	crashed, err := CompleteWithCrash(telemetrySpec(4, 2), 11)
	if err != nil {
		t.Fatal(err)
	}
	defer crashed.Map.Stop()

	os1, err := Observe(straight.Map)
	if err != nil {
		t.Fatal(err)
	}
	os2, err := Observe(crashed.Map)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(os1, os2); len(d) != 0 {
		t.Fatalf("crash-recovery differential failed with telemetry on: %v", d)
	}

	// The resumed Map's bridges must read the live pipeline: its tick count
	// is the post-resume count, not the pre-crash one.
	snap := crashed.Map.MetricsSnapshot()
	ticks, ok := metric(snap, "censys_core_ticks_total", nil)
	if !ok {
		t.Fatal("censys_core_ticks_total missing after resume")
	}
	if want := float64(crashed.Map.Stats().Ticks); ticks.Value != want {
		t.Errorf("post-resume ticks bridge = %v, want %v (live Map)", ticks.Value, want)
	}
}
