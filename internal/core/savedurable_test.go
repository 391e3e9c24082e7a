package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"censysmap/internal/cqrs"
	"censysmap/internal/durable"
)

// TestSaveDurableIncrementalRoundTrip saves a live map twice with
// Incremental set — a quarter day apart — and requires the stitched
// mixed-generation store to load back with row content identical to the
// live journals — dumps and Stats, tier split included — and a checkpoint
// blob equal to a fresh Checkpoint.
func TestSaveDurableIncrementalRoundTrip(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	m.Run(24 * time.Hour)

	dir := t.TempDir()
	opts := durable.SaveOptions{Incremental: true}
	if err := m.SaveDurable(dir, opts); err != nil {
		t.Fatal(err)
	}
	m.Run(6 * time.Hour)
	if err := m.SaveDurable(dir, opts); err != nil {
		t.Fatal(err)
	}

	res, err := durable.Load(dir, durable.LoadOptions{
		Rebuild: map[string]durable.SnapshotRebuilder{"journal": cqrs.RebuildSnapshotPayload},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Clean() {
		t.Fatalf("incremental save chain produced findings: %+v", res.Report.Findings)
	}
	if res.Report.Gen != 2 {
		t.Fatalf("gen = %d, want 2", res.Report.Gen)
	}

	d := m.Durable()
	for _, ns := range []durable.NamedStore{
		{Name: "journal", Store: d.Journal},
		{Name: "webjournal", Store: d.WebJournal},
	} {
		got, ok := res.Stores[ns.Name]
		if !ok {
			t.Fatalf("store %s missing from recovery", ns.Name)
		}
		if got.Partitions() != ns.Store.Partitions() {
			t.Fatalf("%s: partition count %d, want %d", ns.Name, got.Partitions(), ns.Store.Partitions())
		}
		for pi := 0; pi < ns.Store.Partitions(); pi++ {
			if !reflect.DeepEqual(ns.Store.DumpPartition(pi), got.DumpPartition(pi)) {
				t.Fatalf("%s p%d: recovered rows differ from live journal", ns.Name, pi)
			}
		}
		if ls, gs := ns.Store.Stats(), got.Stats(); ls != gs {
			t.Fatalf("%s: recovered stats %+v, live %+v", ns.Name, gs, ls)
		}
	}

	blob, err := json.Marshal(m.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Checkpoint, blob) {
		t.Fatal("recovered checkpoint differs from a fresh tick-boundary checkpoint")
	}
}
