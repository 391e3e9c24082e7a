package journal

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestApplyReplicatedMirrorsAppend: replaying an origin journal's events
// through ApplyReplicated reproduces the origin's partition dumps and stats
// exactly — rows, tier split and write counters — with no tier instruction
// shipped alongside the events.
func TestApplyReplicatedMirrorsAppend(t *testing.T) {
	const parts = 4
	origin := NewPartitioned(parts)
	replica := NewPartitioned(parts)
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	entities := []string{"10.0.0.1", "10.0.0.2", "10.0.0.3", "10.9.3.77", "cert:abc"}
	for step := 0; step < 12; step++ {
		for _, e := range entities {
			kind, payload := "delta", []byte{byte(step)}
			if step%3 == 2 {
				kind, payload = SnapshotKind, []byte("snap")
			}
			at := t0.Add(time.Duration(step) * time.Minute)
			seq, err := origin.Append(e, at, kind, payload)
			if err != nil {
				t.Fatal(err)
			}
			if err := replica.ApplyReplicated(Event{Entity: e, Seq: seq, Time: at, Kind: kind, Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < parts; i++ {
		if od, rd := origin.DumpPartition(i), replica.DumpPartition(i); !reflect.DeepEqual(od, rd) {
			t.Fatalf("partition %d diverged:\n origin  %+v\n replica %+v", i, od, rd)
		}
	}
	if os, rs := origin.Stats(), replica.Stats(); os != rs || os.HDDEvents == 0 {
		t.Fatalf("stats diverged or no HDD tier: %+v vs %+v", os, rs)
	}
	if !reflect.DeepEqual(origin.PerPartitionStats(), replica.PerPartitionStats()) {
		t.Fatal("per-partition counters diverged")
	}
}

// TestApplyReplicatedRefusalCreatesNoRow: an out-of-sequence or backwards
// first event for an unknown entity is refused without leaving an empty row
// behind, so the replica's entity list and dump stay the origin's.
func TestApplyReplicatedRefusalCreatesNoRow(t *testing.T) {
	s := NewStore()
	t0 := time.Unix(0, 0).UTC()
	if err := s.ApplyReplicated(Event{Entity: "ghost", Seq: 3, Time: t0, Kind: "delta"}); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gap accepted: %v", err)
	}
	if got := s.Entities(); len(got) != 0 {
		t.Fatalf("refused event left rows %v", got)
	}
	if d := s.DumpPartition(0); len(d.Rows) != 0 {
		t.Fatalf("refused event left a dumped row: %+v", d)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("refused event moved stats: %+v", st)
	}
	if g := s.PartitionGen(0); g != 0 {
		t.Fatalf("refused event bumped the generation to %d", g)
	}
}

func TestApplyReplicatedRejectsGapsAndDuplicates(t *testing.T) {
	s := NewStore()
	t0 := time.Unix(0, 0).UTC()
	ev := Event{Entity: "e", Seq: 0, Time: t0, Kind: "delta", Payload: []byte("a")}
	if err := s.ApplyReplicated(ev); err != nil {
		t.Fatal(err)
	}
	// Duplicate.
	if err := s.ApplyReplicated(ev); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("duplicate accepted: %v", err)
	}
	// Gap.
	if err := s.ApplyReplicated(Event{Entity: "e", Seq: 5, Time: t0, Kind: "delta"}); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gap accepted: %v", err)
	}
	// Time regression.
	if err := s.ApplyReplicated(Event{Entity: "e", Seq: 1,
		Time: t0.Add(-time.Hour), Kind: "delta"}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("time regression accepted: %v", err)
	}
}
