package journal

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

var base = time.Date(2024, 8, 20, 0, 0, 0, 0, time.UTC)

func ts(h int) time.Time { return base.Add(time.Duration(h) * time.Hour) }

func TestAppendAssignsSequence(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		seq, err := s.Append("e1", ts(i), "ev", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	other, _ := s.Append("e2", ts(0), "ev", nil)
	if other != 0 {
		t.Fatalf("per-entity sequences not independent: %d", other)
	}
}

func TestAppendRejectsTimeTravel(t *testing.T) {
	s := NewStore()
	if _, err := s.Append("e", ts(5), "ev", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("e", ts(4), "ev", nil); err != ErrOutOfOrder {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
	// Equal timestamps are fine (multiple events per scan).
	if _, err := s.Append("e", ts(5), "ev", nil); err != nil {
		t.Fatal(err)
	}
}

func TestReplayNoSnapshot(t *testing.T) {
	s := NewStore()
	for i := 0; i < 4; i++ {
		s.Append("e", ts(i), "ev", []byte{byte(i)})
	}
	snap, deltas, found := s.Replay("e", ts(2))
	if !found {
		t.Fatal("not found")
	}
	if snap.Kind != "" {
		t.Fatalf("unexpected snapshot %+v", snap)
	}
	if len(deltas) != 3 { // events at hours 0,1,2
		t.Fatalf("deltas = %d, want 3", len(deltas))
	}
}

func TestReplayWithSnapshot(t *testing.T) {
	s := NewStore()
	s.Append("e", ts(0), "ev", []byte("a"))
	s.Append("e", ts(1), "ev", []byte("b"))
	s.AppendSnapshot("e", ts(2), []byte("SNAP"))
	s.Append("e", ts(3), "ev", []byte("c"))
	s.Append("e", ts(4), "ev", []byte("d"))

	snap, deltas, found := s.Replay("e", ts(3))
	if !found || string(snap.Payload) != "SNAP" {
		t.Fatalf("snap = %+v found=%v", snap, found)
	}
	if len(deltas) != 1 || string(deltas[0].Payload) != "c" {
		t.Fatalf("deltas = %+v", deltas)
	}

	// Historical read before the snapshot replays from genesis.
	_, deltas, found = s.Replay("e", ts(1))
	if !found || len(deltas) != 2 {
		t.Fatalf("historical replay = %+v found=%v", deltas, found)
	}
}

func TestReplayBeforeFirstEvent(t *testing.T) {
	s := NewStore()
	s.Append("e", ts(5), "ev", nil)
	if _, _, found := s.Replay("e", ts(4)); found {
		t.Fatal("found state before first event")
	}
	if _, _, found := s.Replay("missing", ts(10)); found {
		t.Fatal("found state for unknown entity")
	}
}

func TestReplayPicksNewestSnapshot(t *testing.T) {
	s := NewStore()
	s.AppendSnapshot("e", ts(0), []byte("S0"))
	s.Append("e", ts(1), "ev", []byte("a"))
	s.AppendSnapshot("e", ts(2), []byte("S1"))
	s.Append("e", ts(3), "ev", []byte("b"))
	snap, deltas, _ := s.Replay("e", ts(10))
	if string(snap.Payload) != "S1" || len(deltas) != 1 {
		t.Fatalf("snap=%s deltas=%d", snap.Payload, len(deltas))
	}
}

func TestEventsSinceSnapshot(t *testing.T) {
	s := NewStore()
	s.Append("e", ts(0), "ev", nil)
	s.Append("e", ts(1), "ev", nil)
	if got := s.EventsSinceSnapshot("e"); got != 2 {
		t.Fatalf("pre-snapshot = %d, want 2", got)
	}
	s.AppendSnapshot("e", ts(2), nil)
	if got := s.EventsSinceSnapshot("e"); got != 0 {
		t.Fatalf("post-snapshot = %d, want 0", got)
	}
	s.Append("e", ts(3), "ev", nil)
	if got := s.EventsSinceSnapshot("e"); got != 1 {
		t.Fatalf("after one event = %d, want 1", got)
	}
	if got := s.EventsSinceSnapshot("missing"); got != 0 {
		t.Fatalf("missing entity = %d", got)
	}
}

// The HDD tier is the history before the newest snapshot, and it moves with
// each snapshot as it is appended — there is no migration step to run.
func TestMigrateMovesPreSnapshotHistory(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.Append("e", ts(i), "ev", []byte("0123456789"))
	}
	if st := s.Stats(); st.HDDEvents != 0 || st.SSDEvents != 10 {
		t.Fatalf("before any snapshot: ssd=%d hdd=%d", st.SSDEvents, st.HDDEvents)
	}
	s.AppendSnapshot("e", ts(10), []byte("SNAP"))
	s.Append("e", ts(11), "ev", []byte("x"))

	st := s.Stats()
	if st.HDDEvents != 10 || st.SSDEvents != 2 {
		t.Fatalf("after snapshot: ssd=%d hdd=%d", st.SSDEvents, st.HDDEvents)
	}
	if st.HDDBytes != 100 || st.SSDBytes != 5 {
		t.Fatalf("bytes: ssd=%d hdd=%d, want 5 and 100", st.SSDBytes, st.HDDBytes)
	}

	// Current-state reads start at the snapshot; historical reads reach
	// into the HDD tier.
	snap, deltas, found := s.Replay("e", ts(12))
	if !found || string(snap.Payload) != "SNAP" || len(deltas) != 1 {
		t.Fatalf("current read: %+v %d %v", snap, len(deltas), found)
	}
	_, deltas, found = s.Replay("e", ts(5))
	if !found || len(deltas) != 6 {
		t.Fatalf("historical read: %d events found=%v", len(deltas), found)
	}

	// A second snapshot moves the first one and its delta onto HDD.
	s.AppendSnapshot("e", ts(12), []byte("SNAP2"))
	if st := s.Stats(); st.HDDEvents != 12 || st.SSDEvents != 1 {
		t.Fatalf("after second snapshot: ssd=%d hdd=%d", st.SSDEvents, st.HDDEvents)
	}
}

func TestAppendOrderEnforcedAfterFullMigration(t *testing.T) {
	s := NewStore()
	s.Append("e", ts(0), "ev", nil)
	s.AppendSnapshot("e", ts(1), nil)
	if _, err := s.Append("e", ts(0), "ev", nil); err != ErrOutOfOrder {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
}

func TestEntitiesSorted(t *testing.T) {
	s := NewStore()
	for _, e := range []string{"10.0.0.9", "10.0.0.1", "10.0.0.5"} {
		s.Append(e, ts(0), "ev", nil)
	}
	got := s.Entities()
	want := []string{"10.0.0.1", "10.0.0.5", "10.0.0.9"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Entities() = %v", got)
		}
	}
}

func TestStatsCounts(t *testing.T) {
	s := NewStore()
	s.Append("a", ts(0), "ev", []byte("xxxx"))
	s.AppendSnapshot("a", ts(1), []byte("yy"))
	st := s.Stats()
	if st.Appends != 2 || st.Snapshots != 1 || st.Entities != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SSDBytes != 2 || st.HDDBytes != 4 {
		t.Fatalf("SSDBytes = %d, HDDBytes = %d, want 2 and 4", st.SSDBytes, st.HDDBytes)
	}
}

func TestMaxReplayLen(t *testing.T) {
	s := NewStore()
	s.AppendSnapshot("a", ts(0), nil)
	for i := 1; i <= 7; i++ {
		s.Append("a", ts(i), "ev", nil)
	}
	s.Append("b", ts(0), "ev", nil)
	if st := s.Stats(); st.MaxReplayLen != 7 {
		t.Fatalf("MaxReplayLen = %d, want 7", st.MaxReplayLen)
	}
}

func TestReplayConsistencyQuick(t *testing.T) {
	// Property: for any event sequence with snapshots, replaying at the
	// final time yields (snapshot payload, deltas) whose concatenated
	// payload order matches the raw event order after the last snapshot.
	f := func(kinds []bool) bool {
		s := NewStore()
		var wantAfterSnap []string
		haveSnap := false
		for i, isSnap := range kinds {
			payload := fmt.Sprintf("p%d", i)
			if isSnap {
				s.AppendSnapshot("e", ts(i), []byte(payload))
				wantAfterSnap = nil
				haveSnap = true
			} else {
				s.Append("e", ts(i), "ev", []byte(payload))
				wantAfterSnap = append(wantAfterSnap, payload)
			}
		}
		if len(kinds) == 0 {
			return true
		}
		snap, deltas, found := s.Replay("e", ts(len(kinds)))
		if !found {
			return false
		}
		if haveSnap != (snap.Kind == SnapshotKind) {
			return false
		}
		if len(deltas) != len(wantAfterSnap) {
			return false
		}
		for i := range deltas {
			if string(deltas[i].Payload) != wantAfterSnap[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	s := NewStore()
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			entity := fmt.Sprintf("e%d", g)
			for i := 0; i < 100; i++ {
				if _, err := s.Append(entity, ts(i), "ev", nil); err != nil {
					t.Error(err)
				}
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if st := s.Stats(); st.Appends != 800 || st.Entities != 8 {
		t.Fatalf("stats = %+v", st)
	}
}
