package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"censysmap/internal/durable"
	"censysmap/internal/journal"
)

const fixtures = "../../internal/durable/testdata"

func fsck(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// saveStores writes a small healthy store directory holding the named stores.
func saveStores(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	var stores []durable.NamedStore
	for _, name := range names {
		s := journal.NewPartitioned(1)
		at := time.Unix(0, 1700000000e9).UTC()
		for _, entity := range []string{"10.0.0.1", "10.0.0.2"} {
			if _, err := s.Append(entity, at, "service_found", []byte(`{"port":443}`)); err != nil {
				t.Fatal(err)
			}
		}
		stores = append(stores, durable.NamedStore{Name: name, Store: s})
	}
	if err := durable.Save(dir, stores, []byte(`{}`), durable.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRepairableFixtureText(t *testing.T) {
	code, out, _ := fsck(t, "-dir", filepath.Join(fixtures, "store_repairable"))
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	// The fixture's snapshots are not cqrs host snapshots, so the CLI's
	// rebuilder cannot prove the flipped one and reports it as quarantined;
	// the other two faults are the repairable classes.
	for _, want := range []string{
		"generation 1: 14 records verified; bytes: checkpoint 118 journal 1137\n",
		"torn_tail    truncated_restored   stores/journal/p0000/records.seg record 11 offset 437",
		"checksum     quarantined          stores/journal/p0000/records.seg record 2",
		"checkpoint   fallback_mirror      checkpoint/cp-000001.a record 0",
		"QUARANTINED  journal partitions [0]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "clean") {
		t.Errorf("dirty store reported clean:\n%s", out)
	}
}

func TestQuarantineFixtureJSON(t *testing.T) {
	code, out, _ := fsck(t, "-dir", filepath.Join(fixtures, "store_quarantine"), "-json")
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	var rep durable.FsckReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not a report: %v\n%s", err, out)
	}
	if rep.Clean || len(rep.Findings) != 1 {
		t.Fatalf("report = %+v, want one finding", rep)
	}
	// The byte split sizes what the manifest references: the deleted segment
	// counts zero, both checkpoint mirrors count.
	if want := map[string]int64{"journal": 658, "checkpoint": 118}; !reflect.DeepEqual(rep.Bytes, want) {
		t.Errorf("bytes = %v, want %v", rep.Bytes, want)
	}
	f := rep.Findings[0]
	if f.Fault != durable.FaultMissing || f.Action != durable.ActionQuarantined ||
		f.File != "stores/journal/p0001/records.seg" {
		t.Errorf("finding = %+v", f)
	}
	if want := map[string][]int{"journal": {1}}; !reflect.DeepEqual(rep.Quarantined, want) {
		t.Errorf("quarantined = %v, want %v", rep.Quarantined, want)
	}
}

// TestVersion4StoreRefused: a store saved by the version 4 writer (a chain of
// segment files per partition) is refused as unreadable, naming both the
// version found and the version this build reads.
func TestVersion4StoreRefused(t *testing.T) {
	code, out, errOut := fsck(t, "-dir", filepath.Join(fixtures, "store_v4"))
	if code != 2 || out != "" || !strings.Contains(errOut, "store format version 4, want 5") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 2 and the version refusal", code, out, errOut)
	}
}

func TestCleanStore(t *testing.T) {
	code, out, errOut := fsck(t, "-dir", saveStores(t, "journal"))
	if code != 0 || !strings.HasSuffix(out, "clean\n") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 0 and a clean report", code, out, errOut)
	}
}

func TestUsageAndUnreadableStore(t *testing.T) {
	if code, _, errOut := fsck(t); code != 2 || !strings.Contains(errOut, "usage:") {
		t.Errorf("no -dir: exit %d, stderr %q; want 2 and usage", code, errOut)
	}
	if code, _, errOut := fsck(t, "-dir", t.TempDir()); code != 2 || !strings.Contains(errOut, "no readable manifest") {
		t.Errorf("empty dir: exit %d, stderr %q; want 2 and the manifest error", code, errOut)
	}
	if code, _, _ := fsck(t, "-nosuchflag"); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

// TestQuarantinedStoresSorted: the text report lists quarantined stores by
// name, not in map order.
func TestQuarantinedStoresSorted(t *testing.T) {
	names := []string{"zeta", "alpha", "mid", "beta"}
	dir := saveStores(t, names...)
	for _, name := range names {
		if err := os.Remove(filepath.Join(dir, "stores", name, "p0000", "records.seg")); err != nil {
			t.Fatal(err)
		}
	}
	code, out, _ := fsck(t, "-dir", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	var got []string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "  QUARANTINED  "); ok {
			got = append(got, strings.Fields(rest)[0])
		}
	}
	if want := []string{"alpha", "beta", "mid", "zeta"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("quarantined order %v, want %v", got, want)
	}
}
