package chaos

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"censysmap/internal/cqrs"
	"censysmap/internal/durable"
	"censysmap/internal/lookup"
	"censysmap/internal/shard"
	"censysmap/internal/simnet"
	"censysmap/internal/telemetry"
)

const (
	diskTicks     = 30
	diskCrashTick = 24
)

// diskSpec is the Lab universe with telemetry on and enough journal
// partitions that a mixed fault schedule can claim distinct partitions for
// each class.
func diskSpec(seed uint64) RunSpec {
	spec := Lab(seed, simnet.AdversaryConfig{}, diskTicks)
	spec.Pipeline.Shards = 6
	spec.Pipeline.SnapshotEvery = 2
	spec.Pipeline.Telemetry = telemetry.New()
	return spec
}

// observeAt runs spec for tick ticks uninterrupted and observes it.
func observeAt(t *testing.T, spec RunSpec, tick int) Observation {
	t.Helper()
	r, err := Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Map.Stop()
	r.Step(tick)
	o, err := Observe(r.Map)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// rebuilders is the store->rebuilder map fsck and the tests hand recovery.
func rebuilders() map[string]durable.SnapshotRebuilder {
	return map[string]durable.SnapshotRebuilder{"journal": cqrs.RebuildSnapshotPayload}
}

// TestDiskCrashResumeCleanRoundTrip: persisting through the storage engine
// and recovering from uncorrupted files is invisible — the resumed run
// finishes bit-identical to one that never crashed, with zero findings.
func TestDiskCrashResumeCleanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := Start(diskSpec(0xD15C01))
	if err != nil {
		t.Fatal(err)
	}
	r.Step(diskCrashTick)
	if err := r.CrashToDisk(dir); err != nil {
		t.Fatal(err)
	}
	report, err := r.ResumeFromDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Map.Stop()
	if !report.Clean() {
		t.Fatalf("clean store produced findings: %+v", report.Findings)
	}
	if r.Map.Degraded() {
		t.Fatal("clean recovery came up degraded")
	}
	r.Step(diskTicks - diskCrashTick)
	got, err := Observe(r.Map)
	if err != nil {
		t.Fatal(err)
	}
	want := observeAt(t, diskSpec(0xD15C01), diskTicks)
	if d := Diff(want, got); len(d) != 0 {
		t.Fatalf("disk round-trip differential failed: %v", d)
	}

	snap := r.Map.MetricsSnapshot()
	if v := snap.Total("censys_storage_records_verified_total"); v <= 0 {
		t.Errorf("records verified = %v, want > 0", v)
	}
	for _, fam := range []string{
		"censys_storage_checksum_failures_total",
		"censys_storage_tails_truncated_total",
		"censys_storage_snapshots_rebuilt_total",
		"censys_storage_partitions_quarantined_total",
		"censys_storage_checkpoint_fallbacks_total",
	} {
		if v := snap.Total(fam); v != 0 {
			t.Errorf("%s = %v on a clean store, want 0", fam, v)
		}
	}
	if g, ok := snap.Get("censys_degraded", nil); !ok || g.Value != 0 {
		t.Errorf("censys_degraded = %v (present %v), want 0", g.Value, ok)
	}
}

// diskFaultCases are the differential suite's (seed, fault-schedule) pairs.
// Together they cover every fault class the injector implements, in both
// repairable and quarantining combinations.
var diskFaultCases = []struct {
	name   string
	seed   uint64
	faults DiskFaults
}{
	{"torn-tails", 0xA1, DiskFaults{TornTails: 2}},
	{"snapshot-flips-and-checkpoint-mirror", 0xB2, DiskFaults{SnapshotFlips: 2, CheckpointFlip: true}},
	{"delta-flip-and-missing-file", 0xC3, DiskFaults{DeltaFlips: 1, MissingFiles: 1}},
	{"truncation-with-torn-tail", 0xD4, DiskFaults{Truncations: 1, TornTails: 1}},
	{"every-class-at-once", 0xE5, DiskFaults{DeltaFlips: 1, SnapshotFlips: 1, TornTails: 1,
		Truncations: 1, MissingFiles: 1, CheckpointFlip: true}},
}

// expectedQuarantine derives the sorted partition set the schedule condemns.
func expectedQuarantine(corr []DiskCorruption) []int {
	set := map[int]bool{}
	for _, c := range corr {
		if c.Quarantines {
			set[c.Partition] = true
		}
	}
	var out []int
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// findingMatches reports whether recovery surfaced the corruption: a finding
// of the same fault class on the same file, or on the same journal partition.
func findingMatches(findings []durable.Finding, c DiskCorruption) bool {
	for _, f := range findings {
		if f.Fault != c.Fault {
			continue
		}
		if f.File == c.Path {
			return true
		}
		if c.Partition >= 0 && f.Store == "journal" && f.Partition == c.Partition {
			return true
		}
	}
	return false
}

// TestDiskFaultDifferential is the disk-fault differential suite: for each
// (seed, schedule) pair, a run is crashed to disk, corrupted, and recovered.
// Schedules whose every fault is repairable must finish bit-identical to the
// uninterrupted twin; schedules with unrepairable faults must come up
// degraded with exactly the condemned partitions quarantined and every
// healthy partition bit-identical to the twin at the recovery point.
func TestDiskFaultDifferential(t *testing.T) {
	for _, tc := range diskFaultCases {
		t.Run(tc.name, func(t *testing.T) {
			spec := diskSpec(tc.seed)
			r, err := Start(spec)
			if err != nil {
				t.Fatal(err)
			}
			r.Step(diskCrashTick)
			dir := t.TempDir()
			if err := r.CrashToDisk(dir); err != nil {
				t.Fatal(err)
			}
			faults := tc.faults
			faults.Seed = tc.seed
			corr, err := CorruptDisk(dir, faults)
			if err != nil {
				t.Fatalf("inject: %v (injected so far: %+v)", err, corr)
			}
			report, err := r.ResumeFromDisk(dir)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			defer r.Map.Stop()

			for _, c := range corr {
				if !findingMatches(report.Findings, c) {
					t.Errorf("injected %+v not surfaced; findings: %+v", c, report.Findings)
				}
			}
			wantQuar := expectedQuarantine(corr)
			gotQuar := append([]int(nil), report.Quarantined["journal"]...)
			sort.Ints(gotQuar)
			if !intsEqual(wantQuar, gotQuar) {
				t.Fatalf("quarantined %v, want %v", gotQuar, wantQuar)
			}

			if len(wantQuar) == 0 {
				// Fully repaired: the rest of the run must be bit-identical.
				if r.Map.Degraded() {
					t.Fatal("repaired recovery came up degraded")
				}
				r.Step(diskTicks - diskCrashTick)
				got, err := Observe(r.Map)
				if err != nil {
					t.Fatal(err)
				}
				want := observeAt(t, diskSpec(tc.seed), diskTicks)
				if d := Diff(want, got); d != nil {
					t.Fatalf("repaired differential failed: %v", d)
				}
				return
			}

			// Degraded: healthy partitions bit-identical at the recovery point.
			if !r.Map.Degraded() {
				t.Fatal("quarantined recovery not degraded")
			}
			if got := r.Map.QuarantinedPartitions(); !intsEqual(got, wantQuar) {
				t.Fatalf("Map quarantine %v, want %v", got, wantQuar)
			}
			got, err := Observe(r.Map)
			if err != nil {
				t.Fatal(err)
			}
			base := observeAt(t, diskSpec(tc.seed), diskCrashTick)
			mod := r.Map.Journal().Partitions()
			if d := DegradedDiff(base, got, wantQuar, mod); d != nil {
				t.Fatalf("degraded differential failed: %v", d)
			}
			assertDegradedSurface(t, r, base, wantQuar, mod)
		})
	}
}

// assertDegradedSurface checks the externally visible degradation: the
// response header and 503s on the lookup API, and the telemetry gauges.
func assertDegradedSurface(t *testing.T, r *Run, base Observation, quar []int, mod int) {
	t.Helper()
	quarSet := map[int]bool{}
	for _, p := range quar {
		quarSet[p] = true
	}
	var quarIP, healthyIP string
	for _, id := range base.Entities {
		if quarSet[shard.Of(id, mod)] {
			quarIP = id
		} else {
			healthyIP = id
		}
	}
	h := r.Map.Lookup()

	if quarIP != "" {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v2/hosts/"+quarIP, nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("quarantined host lookup: %d, want 503", rec.Code)
		}
		if got := rec.Header().Get(lookup.DegradedHeader); got == "" {
			t.Error("503 response missing degraded header")
		}
	}
	if healthyIP != "" {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v2/hosts/"+healthyIP, nil))
		if rec.Code == http.StatusServiceUnavailable {
			t.Errorf("healthy host lookup answered 503")
		}
		if got := rec.Header().Get(lookup.DegradedHeader); got == "" {
			t.Error("healthy response missing degraded header (must be on every response)")
		}
	}

	// Fan-out queries (interactive search, certificate-to-hosts) span every
	// partition; with any partition quarantined they must refuse whole
	// rather than present a partial answer as complete.
	for _, u := range []string{"/v2/hosts/search?q=services.port:%20443", "/v2/certificates/deadbeef/hosts"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("degraded fan-out %s: %d, want 503", u, rec.Code)
		}
		if got := rec.Header().Get(lookup.DegradedHeader); got == "" {
			t.Errorf("degraded fan-out %s missing degraded header", u)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v2/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v2/metrics: %d", rec.Code)
	}
	if got := rec.Header().Get(lookup.DegradedHeader); got == "" {
		t.Error("/v2/metrics response missing degraded header")
	}

	snap := r.Map.MetricsSnapshot()
	if g, ok := snap.Get("censys_degraded", nil); !ok || g.Value != 1 {
		t.Errorf("censys_degraded = %v (present %v), want 1", g.Value, ok)
	}
	if g, ok := snap.Get("censys_storage_quarantined_partitions", nil); !ok || g.Value != float64(len(quar)) {
		t.Errorf("quarantined partitions gauge = %v (present %v), want %d", g.Value, ok, len(quar))
	}
	if v := snap.Total("censys_storage_partitions_quarantined_total"); v != float64(len(quar)) {
		t.Errorf("partitions quarantined counter = %v, want %d", v, len(quar))
	}
	if v := snap.Total("censys_storage_checksum_failures_total"); v < 0 {
		t.Errorf("checksum failures counter negative: %v", v)
	}
}

// TestFsckDetectsInjectedCorruption: on a clean store fsck reports clean
// with zero findings (no false positives); after injection it surfaces every
// corruption; with -repair the repairable classes are fixed on disk and a
// re-scan no longer reports them.
func TestFsckDetectsInjectedCorruption(t *testing.T) {
	spec := diskSpec(0xF5C)
	r, err := Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	r.Step(diskCrashTick)
	dir := t.TempDir()
	if err := r.CrashToDisk(dir); err != nil {
		t.Fatal(err)
	}

	clean, err := durable.Fsck(dir, durable.FsckOptions{Rebuild: rebuilders()})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Clean || len(clean.Findings) != 0 {
		t.Fatalf("clean store: clean=%v findings=%+v (want clean, none)", clean.Clean, clean.Findings)
	}
	if clean.RecordsVerified == 0 {
		t.Fatal("clean fsck verified no records")
	}

	corr, err := CorruptDisk(dir, DiskFaults{Seed: 0xF5C, DeltaFlips: 1, SnapshotFlips: 1,
		TornTails: 1, Truncations: 1, MissingFiles: 1, CheckpointFlip: true})
	if err != nil {
		t.Fatalf("inject: %v (injected so far: %+v)", err, corr)
	}

	dirty, err := durable.Fsck(dir, durable.FsckOptions{Rebuild: rebuilders()})
	if err != nil {
		t.Fatal(err)
	}
	if dirty.Clean {
		t.Fatal("fsck called a corrupted store clean")
	}
	for _, c := range corr {
		if !findingMatches(dirty.Findings, c) {
			t.Errorf("fsck missed %+v; findings: %+v", c, dirty.Findings)
		}
	}
	if !intsEqual(dirty.Quarantined["journal"], expectedQuarantine(corr)) {
		t.Errorf("fsck quarantine %v, want %v", dirty.Quarantined["journal"], expectedQuarantine(corr))
	}

	repaired, err := durable.Fsck(dir, durable.FsckOptions{Rebuild: rebuilders(), Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired.Repaired) == 0 {
		t.Fatal("repair pass fixed nothing")
	}
	after, err := durable.Fsck(dir, durable.FsckOptions{Rebuild: rebuilders()})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corr {
		if c.Quarantines {
			if !findingMatches(after.Findings, c) {
				t.Errorf("unrepairable %+v vanished after repair pass", c)
			}
			continue
		}
		if findingMatches(after.Findings, c) {
			t.Errorf("repairable %+v still reported after repair pass", c)
		}
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
