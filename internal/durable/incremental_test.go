package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"censysmap/internal/journal"
)

// markSegments rewinds every segment/dwb/manifest file's mtime to a sentinel
// so a later save reveals exactly which files it rewrote.
func markSegments(t *testing.T, dir string) time.Time {
	t.Helper()
	sentinel := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, pat := range []string{"stores/*/p*/*", "MANIFEST*", "checkpoint/*"} {
		paths, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if err := os.Chtimes(p, sentinel, sentinel); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sentinel
}

// rewrittenPartitions reports which partitions of a store had any file
// touched since the sentinel.
func rewrittenPartitions(t *testing.T, dir, store string, sentinel time.Time) map[int]bool {
	t.Helper()
	out := map[int]bool{}
	paths, err := filepath.Glob(filepath.Join(dir, "stores", store, "p*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.ModTime().After(sentinel) {
			var pi int
			if _, err := fmt.Sscanf(filepath.Base(filepath.Dir(p)), "p%04d", &pi); err != nil {
				t.Fatal(err)
			}
			out[pi] = true
		}
	}
	return out
}

// entityInPartition finds an entity id hashing to the wanted partition.
func entityInPartition(s *journal.Store, want int) string {
	for i := 0; ; i++ {
		id := fmt.Sprintf("inc-host-%d", i)
		probe := journal.NewPartitioned(s.Partitions())
		probe.Append(id, time.Unix(0, 1).UTC(), "k", nil)
		for pi := 0; pi < probe.Partitions(); pi++ {
			if len(probe.DumpPartition(pi).Rows) > 0 {
				if pi == want {
					return id
				}
				break
			}
		}
	}
}

// TestIncrementalSaveSkipsCleanPartitions proves the cost model: an
// incremental save rewrites exactly the partitions whose content generation
// moved, reuses the rest verbatim, and the stitched mixed-generation
// manifest recovers bit-identically to a full save.
func TestIncrementalSaveSkipsCleanPartitions(t *testing.T) {
	dir := t.TempDir()
	s := journal.NewPartitioned(4)
	base := time.Date(2024, 8, 20, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 32; i++ {
		id := fmt.Sprintf("seed-host-%03d", i)
		if _, err := s.Append(id, base, "service_found", []byte(`{"x":1}`)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendSnapshot(id, base, []byte(`{"state":"up"}`)); err != nil {
			t.Fatal(err)
		}
	}
	opts := SaveOptions{RecordsPerSegment: 4, Incremental: true}
	if err := Save(dir, []NamedStore{{Name: "journal", Store: s}}, []byte(`{"t":1}`), opts); err != nil {
		t.Fatal(err)
	}

	// Round 1: nothing dirtied — no partition may be rewritten.
	sentinel := markSegments(t, dir)
	if err := Save(dir, []NamedStore{{Name: "journal", Store: s}}, []byte(`{"t":2}`), opts); err != nil {
		t.Fatal(err)
	}
	if rw := rewrittenPartitions(t, dir, "journal", sentinel); len(rw) != 0 {
		t.Fatalf("clean incremental save rewrote partitions %v", rw)
	}

	// Round 2: dirty exactly partition 2.
	dirty := entityInPartition(s, 2)
	if _, err := s.Append(dirty, base.Add(time.Hour), "service_found", []byte(`{"x":2}`)); err != nil {
		t.Fatal(err)
	}
	sentinel = markSegments(t, dir)
	if err := Save(dir, []NamedStore{{Name: "journal", Store: s}}, []byte(`{"t":3}`), opts); err != nil {
		t.Fatal(err)
	}
	rw := rewrittenPartitions(t, dir, "journal", sentinel)
	if len(rw) != 1 || !rw[2] {
		t.Fatalf("dirtying partition 2 rewrote partitions %v, want exactly {2}", rw)
	}

	// The stitched manifest (three generations of partitions) must load to
	// the live store's exact content, and the full-save behavior must agree.
	res, err := Load(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Clean() {
		t.Fatalf("findings on stitched store: %+v", res.Report.Findings)
	}
	if string(res.Checkpoint) != `{"t":3}` {
		t.Fatalf("checkpoint = %s", res.Checkpoint)
	}
	// A standing directory keeps one checkpoint generation, not one per save.
	cps, err := filepath.Glob(filepath.Join(dir, "checkpoint", "cp-*"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cps {
		cps[i] = filepath.Base(cps[i])
	}
	if want := []string{"cp-000003.a", "cp-000003.b"}; !reflect.DeepEqual(cps, want) {
		t.Fatalf("checkpoint files after 3 saves = %v, want %v", cps, want)
	}
	if !reflect.DeepEqual(dumpAll(s), dumpAll(res.Stores["journal"])) {
		t.Fatal("stitched incremental load differs from live store")
	}

	fullDir := t.TempDir()
	if err := Save(fullDir, []NamedStore{{Name: "journal", Store: s}}, []byte(`{"t":3}`),
		SaveOptions{RecordsPerSegment: 4}); err != nil {
		t.Fatal(err)
	}
	full, err := Load(fullDir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dumpAll(full.Stores["journal"]), dumpAll(res.Stores["journal"])) {
		t.Fatal("incremental and full saves recovered different stores")
	}
}

// TestIncrementalSaveSurvivesMissingReusableSegment: a reusable partition
// whose files vanished must be rewritten, not reused blind.
func TestIncrementalSaveSurvivesMissingReusableSegment(t *testing.T) {
	dir := t.TempDir()
	s := fixtureStore(t)
	opts := SaveOptions{RecordsPerSegment: 4, Incremental: true}
	if err := Save(dir, []NamedStore{{Name: "journal", Store: s}}, []byte(`{}`), opts); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "stores", "journal", "p0000", "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments found: %v", err)
	}
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	if err := Save(dir, []NamedStore{{Name: "journal", Store: s}}, []byte(`{}`), opts); err != nil {
		t.Fatal(err)
	}
	res, err := Load(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Clean() {
		t.Fatalf("findings after reuse-miss rewrite: %+v", res.Report.Findings)
	}
	if !reflect.DeepEqual(dumpAll(s), dumpAll(res.Stores["journal"])) {
		t.Fatal("reloaded store differs after rewriting vanished partition")
	}
}
