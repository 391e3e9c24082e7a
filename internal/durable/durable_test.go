package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"censysmap/internal/journal"
)

// fixtureStore builds a 2-partition journal: six rows of a delta, a
// snapshot and another delta each.
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

// saveFixture persists the fixture store with a fixed checkpoint blob.
func saveFixture(t *testing.T, dir string, s *journal.Store) {
	t.Helper()
	err := Save(dir, []NamedStore{{Name: "journal", Store: s}}, []byte(`{"tick":42}`), SaveOptions{})
	if err != nil {
		t.Fatal(err)
	}
}

// partitionFile is the path of partition pi's segment file in the
// generation saved under dir.
func partitionFile(t *testing.T, dir string, pi int) string {
	t.Helper()
	rels, err := SegmentFiles(dir, "journal")
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, rels[pi])
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
// payloads; version 4, a chain of segment files per partition — must fail
// Load and Fsck at the manifest instead of feeding its records to today's
// decoders. testdata/store_v4 is a store the version 4 writer saved.
func TestOldManifestVersionsRejected(t *testing.T) {
	for _, err := range []error{
		func() error { _, err := Load(filepath.Join("testdata", "store_v4"), LoadOptions{}); return err }(),
		func() error { _, err := Fsck(filepath.Join("testdata", "store_v4"), FsckOptions{}); return err }(),
	} {
		if !errors.Is(err, ErrBadHeader) || !strings.Contains(err.Error(), "store format version 4, want 5") {
			t.Fatalf("store_v4: err = %v, want ErrBadHeader naming versions 4 and 5", err)
		}
	}

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
// given kind, in any partition file of the journal store, and returns the
// file it hit.
func corruptMatching(t *testing.T, dir, kind string) string {
	t.Helper()
	rels, err := SegmentFiles(dir, "journal")
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range rels {
		p := filepath.Join(dir, rel)
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

	// Tear partition 0's file: cut mid-way into its final record.
	active := partitionFile(t, dir, 0)
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
	if err := os.Remove(partitionFile(t, dir, 1)); err != nil {
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

// TestSaveWritesOneSegmentPerPartition: a full save writes exactly one
// segment file per partition however long the partition is, and Load needs
// nothing under stores/ but those files.
func TestSaveWritesOneSegmentPerPartition(t *testing.T) {
	dir := t.TempDir()
	s := journal.NewPartitioned(4)
	base := time.Unix(0, 1700000000e9).UTC()
	for i := 0; i < 100; i++ {
		entity := fmt.Sprintf("10.0.0.%d", i)
		for e := 0; e < 3; e++ {
			if _, err := s.Append(entity, base.Add(time.Duration(e)*time.Minute), "service_observed", []byte(`{"port":443}`)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := Save(dir, []NamedStore{{Name: "journal", Store: s}}, []byte(`{}`), SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	var segs, others []string
	err := filepath.WalkDir(filepath.Join(dir, "stores"), func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if filepath.Ext(p) == ".seg" {
			segs = append(segs, rel)
		} else {
			others = append(others, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	named, err := SegmentFiles(dir, "journal")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != s.Partitions() || !slices.Equal(segs, named) {
		t.Fatalf("segment files %v, want the manifest's one per partition %v", segs, named)
	}

	for _, p := range append(others, filepath.Join(dir, "MANIFEST.bak")) {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Load(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Clean() || !reflect.DeepEqual(dumpAll(s), dumpAll(res.Stores["journal"])) {
		t.Fatalf("load from the segment files alone: findings %+v", res.Report.Findings)
	}
	if v := res.Metrics.RecordsVerified.Value(); v != 400 {
		t.Fatalf("records verified = %d, want 400 (100 rows of 3 events)", v)
	}
}

// TestPartitionTailCuts: a partition file cut exactly at its last frame is
// restored from tail.dwb bit-identically, in memory and by fsck -repair on
// disk; cut two frames short it has lost more than the sidecar covers and
// quarantines as truncated.
func TestPartitionTailCuts(t *testing.T) {
	for _, lost := range []int{1, 2} {
		t.Run(fmt.Sprintf("lost=%d", lost), func(t *testing.T) {
			dir := t.TempDir()
			s := fixtureStore(t)
			saveFixture(t, dir, s)
			p := partitionFile(t, dir, 0)
			saved, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			scan, err := InspectSegment(saved)
			if err != nil {
				t.Fatal(err)
			}
			cut := scan.Frames[len(scan.Frames)-lost].Offset
			if err := os.WriteFile(p, saved[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := Load(dir, LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			f := res.Report.Findings
			if lost > 1 {
				if len(f) != 1 || f[0].Fault != FaultTruncated || f[0].Action != ActionQuarantined ||
					!reflect.DeepEqual(res.Report.Quarantined["journal"], []int{0}) {
					t.Fatalf("findings %+v, quarantined %v; want partition 0 quarantined as truncated",
						f, res.Report.Quarantined)
				}
				return
			}
			if len(f) != 1 || f[0].Fault != FaultTornTail || f[0].Action != ActionRestoredTail {
				t.Fatalf("findings %+v, want the one restored tail", f)
			}
			if !reflect.DeepEqual(dumpAll(s), dumpAll(res.Stores["journal"])) {
				t.Fatal("tail-restored store differs from original")
			}
			if _, err := Fsck(dir, FsckOptions{Repair: true}); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, saved) {
				t.Fatalf("repaired file differs from the saved one (err %v)", err)
			}
		})
	}
}

// TestFsckRepairRestoresRepairableFixture: the repairable fixture holds a
// torn tail and a flipped snapshot in the same partition file; fsck -repair
// applies both fixes to that file and every file it repairs comes back
// byte-identical to a pristine save.
func TestFsckRepairRestoresRepairableFixture(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "store_repairable"))); err != nil {
		t.Fatal(err)
	}
	opts := FsckOptions{Rebuild: map[string]SnapshotRebuilder{"journal": fixtureRebuilder}, Repair: true}
	rep, err := Fsck(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repaired) != 2 {
		t.Fatalf("repaired %v, want the partition file and the checkpoint primary", rep.Repaired)
	}
	opts.Repair = false
	if after, err := Fsck(dir, opts); err != nil || !after.Clean {
		t.Fatalf("after repair: %+v, %v", after, err)
	}
	pristine := t.TempDir()
	saveFixture(t, pristine, fixtureStore(t))
	for _, p := range rep.Repaired {
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(pristine, rel))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("repaired %s differs from the pristine save (err %v)", rel, err)
		}
	}
}

// TestManifestSealCatchesRewrittenFrame: a record rewritten together with
// its frame CRC passes every frame check; the manifest's segment checksum
// still catches it, and the partition quarantines.
func TestManifestSealCatchesRewrittenFrame(t *testing.T) {
	dir := t.TempDir()
	saveFixture(t, dir, fixtureStore(t))
	p := partitionFile(t, dir, 0)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := InspectSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	fr := scan.Frames[1]
	data[fr.PayloadOff+int64(len(fr.Payload))-1] ^= 0x01
	binary.BigEndian.PutUint32(data[fr.Offset+4:], Checksum(data[fr.PayloadOff:fr.PayloadOff+int64(len(fr.Payload))]))
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Load(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Report.Findings; len(f) != 1 || f[0].Fault != FaultChecksum || f[0].Action != ActionQuarantined ||
		!reflect.DeepEqual(res.Report.Quarantined["journal"], []int{0}) {
		t.Fatalf("findings %+v, quarantined %v; want partition 0 quarantined on its segment checksum",
			f, res.Report.Quarantined)
	}
}
