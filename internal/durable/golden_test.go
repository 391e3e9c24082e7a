// Golden-fixture tests for the storage engine: corrupted segment stores are
// committed under testdata/ together with the exact fsck report and
// post-recovery state digest each must produce. A diff here means the on-disk
// format or a recovery rule changed — which alters how existing stores read
// back and must be deliberate. Regenerate with:
//
//	go test ./internal/durable/ -run TestGolden -update
package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"censysmap/internal/journal"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s changed\n got: %s\nwant: %s", name, got, want)
	}
}

// digestStore hashes each partition's canonical re-encoding — the
// post-recovery state digest the fixtures pin.
func digestStore(s *journal.Store) []byte {
	var sb strings.Builder
	for pi := 0; pi < s.Partitions(); pi++ {
		h := sha256.New()
		for _, rec := range encodePartition(s.DumpPartition(pi)) {
			h.Write(rec)
			h.Write([]byte{0})
		}
		fmt.Fprintf(&sb, "p%d %s\n", pi, hex.EncodeToString(h.Sum(nil)))
	}
	return []byte(sb.String())
}

// rebuildFixtures regenerates the committed corrupted stores. The base store
// is fixtureStore (fixed clock), so the bytes are reproducible.
func rebuildFixtures(t *testing.T) {
	t.Helper()
	build := func(name string, corrupt func(dir string)) {
		dir := filepath.Join("testdata", name)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		saveFixture(t, dir, fixtureStore(t))
		corrupt(dir)
	}
	// Every fault here is repairable: recovery must restore the exact saved
	// state and fsck -repair must leave the store clean.
	build("store_repairable", func(dir string) {
		corruptMatching(t, dir, journal.SnapshotKind)
		// Tear the tail of partition 0, the file the flip above hit.
		p := partitionFile(t, dir, 0)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data[:len(data)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		// Corrupt primary checkpoint: mirror must serve.
		cp := filepath.Join(dir, "checkpoint", "cp-000001.a")
		data, err = os.ReadFile(cp)
		if err != nil {
			t.Fatal(err)
		}
		data[headerSize+frameHeader+3] ^= 0x08
		if err := os.WriteFile(cp, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	// An unrepairable store: partition 1's file is gone, so that partition
	// is quarantined; partition 0 must survive untouched.
	build("store_quarantine", func(dir string) {
		if err := os.Remove(partitionFile(t, dir, 1)); err != nil {
			t.Fatal(err)
		}
	})
}

func TestGoldenCorruptedStores(t *testing.T) {
	if *update {
		rebuildFixtures(t)
	}
	for _, name := range []string{"store_repairable", "store_quarantine"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", name)
			rep, err := Fsck(dir, FsckOptions{
				Rebuild: map[string]SnapshotRebuilder{"journal": fixtureRebuilder},
			})
			if err != nil {
				t.Fatal(err)
			}
			repJSON, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+".fsck.json", append(repJSON, '\n'))

			res, err := Load(dir, LoadOptions{
				Rebuild: map[string]SnapshotRebuilder{"journal": fixtureRebuilder},
			})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+".digest", digestStore(res.Stores["journal"]))
		})
	}

	// The repairable fixture's recovered state must equal the uncorrupted
	// fixture bit-for-bit — not merely match its own golden.
	res, err := Load(filepath.Join("testdata", "store_repairable"), LoadOptions{
		Rebuild: map[string]SnapshotRebuilder{"journal": fixtureRebuilder},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digestStore(res.Stores["journal"]), digestStore(fixtureStore(t)); string(got) != string(want) {
		t.Errorf("repairable fixture recovery diverged from the pristine store\n got: %s\nwant: %s", got, want)
	}
}
