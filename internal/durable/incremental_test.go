package durable

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"censysmap/internal/journal"
)

// markSegments rewinds every file's mtime to a sentinel so a later save
// reveals exactly which files it wrote.
func markSegments(t *testing.T, dir string) time.Time {
	t.Helper()
	sentinel := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return os.Chtimes(p, sentinel, sentinel)
	})
	if err != nil {
		t.Fatal(err)
	}
	return sentinel
}

// rewrittenPartitions reports which partitions of a store the current
// manifest names any file written since the sentinel for.
func rewrittenPartitions(t *testing.T, dir, store string, sentinel time.Time) map[int]bool {
	t.Helper()
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]bool{}
	for _, sm := range man.Stores {
		if sm.Name != store {
			continue
		}
		for pi, pm := range sm.Partitions {
			for _, rel := range []string{pm.File, pm.DWB} {
				if rel == "" {
					continue
				}
				fi, err := os.Stat(filepath.Join(dir, rel))
				if err != nil {
					t.Fatal(err)
				}
				if fi.ModTime().After(sentinel) {
					out[pi] = true
				}
			}
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
	opts := SaveOptions{Incremental: true}
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
		SaveOptions{}); err != nil {
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
// whose file vanished must be rewritten, not reused blind.
func TestIncrementalSaveSurvivesMissingReusableSegment(t *testing.T) {
	dir := t.TempDir()
	s := fixtureStore(t)
	opts := SaveOptions{Incremental: true}
	if err := Save(dir, []NamedStore{{Name: "journal", Store: s}}, []byte(`{}`), opts); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(partitionFile(t, dir, 0)); err != nil {
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

// TestFailedSaveKeepsLastGeneration: a save that fails before its MANIFEST
// lands leaves the previous generation loadable, whole and clean, for full
// and incremental saves alike; the next save that lands leaves exactly the
// files its manifest names.
func TestFailedSaveKeepsLastGeneration(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			dir := t.TempDir()
			s := fixtureStore(t)
			save := func(cp string) error {
				return Save(dir, []NamedStore{{Name: "journal", Store: s}}, []byte(cp),
					SaveOptions{Incremental: incremental})
			}
			load := func(wantCP string, want []journal.PartitionDump) {
				t.Helper()
				res, err := Load(dir, LoadOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Report.Clean() {
					t.Fatalf("findings: %+v", res.Report.Findings)
				}
				if string(res.Checkpoint) != wantCP {
					t.Fatalf("checkpoint = %s, want %s", res.Checkpoint, wantCP)
				}
				if !reflect.DeepEqual(dumpAll(res.Stores["journal"]), want) {
					t.Fatal("loaded store differs from the saved one")
				}
			}
			if err := save(`{"t":1}`); err != nil {
				t.Fatal(err)
			}
			first := dumpAll(s)
			base := time.Date(2024, 8, 21, 0, 0, 0, 0, time.UTC)
			for pi := 0; pi < s.Partitions(); pi++ {
				if _, err := s.Append(entityInPartition(s, pi), base, "service_found", nil); err != nil {
					t.Fatal(err)
				}
			}

			// A directory in the way of the temp manifest fails the save
			// after every segment and checkpoint file is written.
			block := filepath.Join(dir, "MANIFEST.bak.tmp")
			if err := os.Mkdir(block, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := save(`{"t":2}`); err == nil {
				t.Fatal("save succeeded with its manifest blocked")
			}
			load(`{"t":1}`, first)

			if err := os.Remove(block); err != nil {
				t.Fatal(err)
			}
			if err := save(`{"t":3}`); err != nil {
				t.Fatal(err)
			}
			load(`{"t":3}`, dumpAll(s))
			man, err := readManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"MANIFEST", "MANIFEST.bak"}
			man.files(func(_, rel string) { want = append(want, rel) })
			var got []string
			err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				rel, err := filepath.Rel(dir, p)
				got = append(got, rel)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("files after the save that landed:\n%v\nwant the manifest's:\n%v", got, want)
			}
		})
	}
}
