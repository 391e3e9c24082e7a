package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"censysmap/internal/journal"
)

// fixtureStore builds a 2-partition journal with enough events per row that
// Save spills sealed segments (RecordsPerSegment below) plus an active tail.
func fixtureStore(t *testing.T) *journal.Store {
	t.Helper()
	s := journal.NewPartitioned(2)
	base := time.Unix(0, 1700000000e9).UTC()
	for i := 0; i < 6; i++ {
		entity := fmt.Sprintf("10.0.0.%d", i)
		ts := base.Add(time.Duration(i) * time.Minute)
		if _, err := s.Append(entity, ts, "service_observed", []byte(`{"port":443}`)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendSnapshot(entity, ts, []byte(`{"state":"up"}`)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(entity, ts.Add(time.Second), "service_observed", []byte(`{"port":80}`)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// saveFixture persists the fixture store with small segments so sealed files,
// the active tail, and the dwb sidecar all exist.
func saveFixture(t *testing.T, dir string, s *journal.Store) {
	t.Helper()
	err := Save(dir, []NamedStore{{Name: "journal", Store: s}}, []byte(`{"tick":42}`),
		SaveOptions{RecordsPerSegment: 4})
	if err != nil {
		t.Fatal(err)
	}
}

func dumpAll(s *journal.Store) []journal.PartitionDump {
	out := make([]journal.PartitionDump, s.Partitions())
	for i := range out {
		out[i] = s.DumpPartition(i)
	}
	return out
}

// fixtureRebuilder reconstructs the fixture's snapshot payload: every
// snapshot in fixtureStore carries the same state blob.
func fixtureRebuilder(entity string, prior []journal.Event) ([]byte, error) {
	return []byte(`{"state":"up"}`), nil
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := fixtureStore(t)
	saveFixture(t, dir, s)

	res, err := Load(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Clean() {
		t.Fatalf("clean store produced findings: %+v", res.Report.Findings)
	}
	if string(res.Checkpoint) != `{"tick":42}` {
		t.Fatalf("checkpoint = %q", res.Checkpoint)
	}
	got, ok := res.Stores["journal"]
	if !ok {
		t.Fatal("journal store missing from result")
	}
	if !reflect.DeepEqual(dumpAll(s), dumpAll(got)) {
		t.Fatal("loaded dumps differ from saved store")
	}
	if v := res.Metrics.RecordsVerified.Value(); v == 0 {
		t.Fatal("records verified counter did not move")
	}
}

func TestSaveBumpsGeneration(t *testing.T) {
	dir := t.TempDir()
	s := fixtureStore(t)
	saveFixture(t, dir, s)
	saveFixture(t, dir, s)
	res, err := Load(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Gen != 2 {
		t.Fatalf("gen = %d, want 2", res.Report.Gen)
	}
}

// isEventOfKind reports whether a frame payload is an event record of kind.
func isEventOfKind(payload []byte, kind string) bool {
	rec, err := DecodeRecord(payload)
	return err == nil && rec.Tag == TagEvent && rec.Ev.Kind == kind
}

// TestOldManifestVersionsRejected: a store saved in an earlier format —
// version 1, JSON envelope records; version 2, binary records around JSON
// payloads — must fail Load and Fsck at the manifest instead of feeding its
// records to today's decoders.
func TestOldManifestVersionsRejected(t *testing.T) {
	for version := 1; version < manifestVersion; version++ {
		dir := t.TempDir()
		saveFixture(t, dir, fixtureStore(t))
		old := buildSingleRecord(KindManifest, 0,
			fmt.Appendf(nil, `{"version":%d,"gen":1,"stores":[]}`, version))
		for _, name := range []string{"MANIFEST", "MANIFEST.bak"} {
			if err := os.WriteFile(filepath.Join(dir, name), old, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Load(dir, LoadOptions{}); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("version %d: Load err = %v, want ErrBadHeader", version, err)
		}
		if _, err := Fsck(dir, FsckOptions{}); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("version %d: Fsck err = %v, want ErrBadHeader", version, err)
		}

		// An old MANIFEST does not shadow a current MANIFEST.bak, and a save
		// over an old directory starts a fresh generation chain.
		saveFixture(t, dir, fixtureStore(t))
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), old, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Load(dir, LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Gen != 1 || !res.Report.Clean() {
			t.Fatalf("version %d: gen %d, findings %+v", version, res.Report.Gen, res.Report.Findings)
		}
	}
}

// corruptMatching flips one payload byte of the first event record of the
// given kind, in any segment under dir/stores/journal, and returns the file
// it hit.
func corruptMatching(t *testing.T, dir, kind string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "stores", "journal", "p*", "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := InspectSegment(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range scan.Frames {
			if !isEventOfKind(f.Payload, kind) {
				continue
			}
			data[f.PayloadOff+1] ^= 0x20
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	t.Fatalf("no %q event record found", kind)
	return ""
}

func TestLoadRepairsSnapshotByCRCProof(t *testing.T) {
	dir := t.TempDir()
	s := fixtureStore(t)
	saveFixture(t, dir, s)
	corruptMatching(t, dir, journal.SnapshotKind)

	res, err := Load(dir, LoadOptions{
		Rebuild: map[string]SnapshotRebuilder{"journal": fixtureRebuilder},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt bool
	for _, f := range res.Report.Findings {
		if f.Fault == FaultChecksum && f.Action == ActionRebuiltSnapshot {
			rebuilt = true
		}
	}
	if !rebuilt {
		t.Fatalf("no rebuilt_snapshot finding: %+v", res.Report.Findings)
	}
	if len(res.Report.Quarantined) != 0 {
		t.Fatalf("repairable fault quarantined: %v", res.Report.Quarantined)
	}
	if !reflect.DeepEqual(dumpAll(s), dumpAll(res.Stores["journal"])) {
		t.Fatal("repaired store differs from original")
	}
	if v := res.Metrics.SnapshotsRebuilt.Value(); v != 1 {
		t.Fatalf("snapshots rebuilt = %d, want 1", v)
	}
	// Without a rebuilder the same fault condemns the partition.
	dir2 := t.TempDir()
	saveFixture(t, dir2, s)
	corruptMatching(t, dir2, journal.SnapshotKind)
	res2, err := Load(dir2, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Report.Quarantined["journal"]) != 1 {
		t.Fatalf("quarantined = %v, want one partition", res2.Report.Quarantined)
	}
}

func TestLoadRestoresTornTailFromDoublewrite(t *testing.T) {
	dir := t.TempDir()
	s := fixtureStore(t)
	saveFixture(t, dir, s)

	// Tear the active segment of partition 0: cut mid-way into its final record.
	var active string
	paths, _ := filepath.Glob(filepath.Join(dir, "stores", "journal", "p0000", "seg-*.seg"))
	for _, p := range paths {
		data, _ := os.ReadFile(p)
		if scan, err := InspectSegment(data); err == nil && !scan.Sealed {
			active = p
		}
	}
	if active == "" {
		t.Fatal("no active segment found")
	}
	data, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(active, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := Load(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var restored bool
	for _, f := range res.Report.Findings {
		if f.Fault == FaultTornTail && f.Action == ActionRestoredTail {
			restored = true
		}
	}
	if !restored {
		t.Fatalf("no truncated_restored finding: %+v", res.Report.Findings)
	}
	if !reflect.DeepEqual(dumpAll(s), dumpAll(res.Stores["journal"])) {
		t.Fatal("tail-restored store differs from original")
	}
	if v := res.Metrics.TailsTruncated.Value(); v != 1 {
		t.Fatalf("tails truncated = %d, want 1", v)
	}
}

func TestLoadQuarantinesMissingSegment(t *testing.T) {
	dir := t.TempDir()
	s := fixtureStore(t)
	saveFixture(t, dir, s)
	paths, _ := filepath.Glob(filepath.Join(dir, "stores", "journal", "p0001", "seg-000000.seg"))
	if len(paths) != 1 {
		t.Fatalf("fixture layout changed: %v", paths)
	}
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	res, err := Load(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Report.Quarantined["journal"]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("quarantined = %v, want [1]", got)
	}
	// The healthy partition must still load bit-identically.
	if !reflect.DeepEqual(s.DumpPartition(0), res.Stores["journal"].DumpPartition(0)) {
		t.Fatal("healthy partition 0 differs after quarantine of partition 1")
	}
	if v := res.Metrics.PartitionsQuarantined.Value(); v != 1 {
		t.Fatalf("partitions quarantined = %d, want 1", v)
	}
}

// TestLoadCheckpointMirrorAndStaleCurrent: a corrupt primary checkpoint is
// served from its mirror. The manifest alone names the generation: Save
// writes no CURRENT hint, and one an older writer left behind — here naming
// a generation that does not exist — is neither read nor reported.
func TestLoadCheckpointMirrorAndStaleCurrent(t *testing.T) {
	dir := t.TempDir()
	s := fixtureStore(t)
	saveFixture(t, dir, s)
	cps, err := os.ReadDir(filepath.Join(dir, "checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range cps {
		if e.Name() != "cp-000001.a" && e.Name() != "cp-000001.b" {
			t.Fatalf("Save wrote checkpoint/%s; want only the two mirrors", e.Name())
		}
	}

	// Corrupt the primary checkpoint payload; the .b mirror must serve it.
	primary := filepath.Join(dir, "checkpoint", "cp-000001.a")
	data, err := os.ReadFile(primary)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+frameHeader+3] ^= 0x08
	if err := os.WriteFile(primary, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// And leave a stale CURRENT hint, as an older writer would have.
	if err := os.WriteFile(filepath.Join(dir, "checkpoint", "CURRENT"), []byte("0\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := Load(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Checkpoint) != `{"tick":42}` {
		t.Fatalf("checkpoint = %q, want the saved blob via the mirror", res.Checkpoint)
	}
	if f := res.Report.Findings; len(f) != 1 || f[0].Fault != FaultCheckpoint || f[0].Action != ActionFellBack {
		t.Fatalf("findings = %+v, want the one mirror fallback", f)
	}
	if v := res.Metrics.CheckpointFallbacks.Value(); v != 1 {
		t.Fatalf("checkpoint fallbacks = %d, want 1", v)
	}
}

// TestFindingContext: recovery errors carry partition/segment/offset context.
func TestFindingContext(t *testing.T) {
	dir := t.TempDir()
	s := fixtureStore(t)
	saveFixture(t, dir, s)
	hit := corruptMatching(t, dir, "service_observed")
	res, err := Load(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(dir, hit)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Report.Findings {
		if f.Fault != FaultChecksum {
			continue
		}
		if f.File != rel {
			t.Errorf("finding file = %q, want %q", f.File, rel)
		}
		if f.Store != "journal" || f.Partition < 0 || f.Record < 0 || f.Offset <= 0 {
			t.Errorf("finding lacks context: %+v", f)
		}
		return
	}
	t.Fatalf("no checksum finding: %+v", res.Report.Findings)
}

func TestFsckRepairMakesStoreClean(t *testing.T) {
	dir := t.TempDir()
	s := fixtureStore(t)
	saveFixture(t, dir, s)
	corruptMatching(t, dir, journal.SnapshotKind)

	opts := FsckOptions{Rebuild: map[string]SnapshotRebuilder{"journal": fixtureRebuilder}}
	rep, err := Fsck(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean || len(rep.Findings) == 0 {
		t.Fatalf("fsck missed the faults: %+v", rep)
	}
	if len(rep.Repaired) != 0 {
		t.Fatalf("repaired without -repair: %v", rep.Repaired)
	}

	opts.Repair = true
	rep, err = Fsck(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repaired) == 0 {
		t.Fatal("repair pass rewrote nothing")
	}
	for _, p := range rep.Repaired {
		if !strings.HasPrefix(p, dir) {
			t.Fatalf("repair outside store dir: %s", p)
		}
	}

	rep, err = Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("store still dirty after repair: %+v", rep.Findings)
	}
}
