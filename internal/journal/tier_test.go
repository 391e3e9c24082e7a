package journal

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// bruteReplay is Replay written out over the full event list: the newest
// snapshot at or before asOf and every event after it up to asOf.
func bruteReplay(evs []Event, asOf time.Time) (Event, []Event, bool) {
	var window []Event
	for _, ev := range evs {
		if !ev.Time.After(asOf) {
			window = append(window, ev)
		}
	}
	if len(window) == 0 {
		return Event{}, nil, false
	}
	for i := len(window) - 1; i >= 0; i-- {
		if window[i].Kind == SnapshotKind {
			return window[i], window[i+1:], true
		}
	}
	return Event{}, window, true
}

// bruteStats recounts Stats from every row's events: a row's HDD tier is
// the events before its newest snapshot.
func bruteStats(s *Store) Stats {
	var st Stats
	for _, id := range s.Entities() {
		evs := s.Events(id)
		st.Entities++
		snap := -1
		for i, ev := range evs {
			st.Appends++
			if ev.Kind == SnapshotKind {
				st.Snapshots++
				snap = i
			}
		}
		for i, ev := range evs {
			if i < snap {
				st.HDDEvents++
				st.HDDBytes += int64(len(ev.Payload))
			} else {
				st.SSDEvents++
				st.SSDBytes += int64(len(ev.Payload))
			}
		}
		st.MaxReplayLen = max(st.MaxReplayLen, len(evs)-snap-1)
	}
	return st
}

func dumpStore(s *Store) []PartitionDump {
	out := make([]PartitionDump, s.Partitions())
	for i := range out {
		out[i] = s.DumpPartition(i)
	}
	return out
}

// TestTierProperties drives seeded random schedules of Append,
// ApplyReplicated (a mirror fed every accepted event, plus refused
// out-of-sequence and backwards events) and Dump→Restore, and checks after
// every step that Replay equals a brute-force replay over Events, Stats
// equals a brute-force count with the HDD tier being exactly the events
// before each row's newest snapshot, the mirror equals the origin, and
// Dump→Restore→Dump is the identity.
func TestTierProperties(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		parts := 1 + rng.Intn(4)
		origin, mirror := NewPartitioned(parts), NewPartitioned(parts)
		entities := []string{"10.0.0.1", "10.0.0.2", "10.0.3.9", "cert:ab", "web:x"}
		clock := make(map[string]int)
		for step := 0; step < 200; step++ {
			e := entities[rng.Intn(len(entities))]
			switch op := rng.Intn(10); {
			case op < 7:
				clock[e] += rng.Intn(3) // equal times are legal
				kind := "delta"
				if rng.Intn(4) == 0 {
					kind = SnapshotKind
				}
				payload := make([]byte, rng.Intn(6))
				rng.Read(payload)
				seq, err := origin.Append(e, ts(clock[e]), kind, payload)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				ev := Event{Entity: e, Seq: seq, Time: ts(clock[e]), Kind: kind, Payload: payload}
				if err := mirror.ApplyReplicated(ev); err != nil {
					t.Fatalf("seed %d step %d: replicate: %v", seed, step, err)
				}
			case op < 8:
				// Refused events change nothing: a sequence gap, a
				// duplicate, a step back in time, and an unknown row.
				next := uint64(len(origin.Events(e)))
				refused := []Event{
					{Entity: e, Seq: next + 1, Time: ts(clock[e])},
					{Entity: fmt.Sprintf("new-%d", step), Seq: 1, Time: ts(0)},
				}
				if next > 0 {
					refused = append(refused,
						Event{Entity: e, Seq: next - 1, Time: ts(clock[e])},
						Event{Entity: e, Seq: next, Time: ts(clock[e] - 1)})
					if _, err := origin.Append(e, ts(clock[e]-1), "delta", nil); err != ErrOutOfOrder {
						t.Fatalf("seed %d step %d: backwards append: %v", seed, step, err)
					}
				}
				for _, ev := range refused {
					if err := mirror.ApplyReplicated(ev); err == nil {
						t.Fatalf("seed %d step %d: accepted %+v", seed, step, ev)
					}
				}
			default:
				i := rng.Intn(parts)
				d := origin.DumpPartition(i)
				if err := origin.RestorePartition(i, d); err != nil {
					t.Fatal(err)
				}
				if again := origin.DumpPartition(i); !reflect.DeepEqual(again, d) {
					t.Fatalf("seed %d step %d: dump→restore→dump drifted", seed, step)
				}
			}

			if got, want := origin.Stats(), bruteStats(origin); got != want {
				t.Fatalf("seed %d step %d: stats %+v, brute force %+v", seed, step, got, want)
			}
			if !reflect.DeepEqual(dumpStore(mirror), dumpStore(origin)) || mirror.Stats() != origin.Stats() ||
				!reflect.DeepEqual(mirror.PerPartitionStats(), origin.PerPartitionStats()) {
				t.Fatalf("seed %d step %d: mirror diverged from origin", seed, step)
			}
		}
		for _, e := range append(entities, "missing") {
			evs := origin.Events(e)
			for h := -1; h <= clock[e]+1; h++ {
				snap, deltas, found := origin.Replay(e, ts(h))
				ws, wd, wf := bruteReplay(evs, ts(h))
				if found != wf || !reflect.DeepEqual(snap, ws) || len(deltas) != len(wd) ||
					(len(wd) > 0 && !reflect.DeepEqual(deltas, wd)) {
					t.Fatalf("seed %d: Replay(%s, %d) = %+v %+v %v, brute force %+v %+v %v",
						seed, e, h, snap, deltas, found, ws, wd, wf)
				}
			}
		}
	}
}

// TestConcurrentReplayAndAppend: Replay hands out subslices of the live row,
// so readers racing appends to the same row must neither race (run under
// -race) nor see their window change after the call returns.
func TestConcurrentReplayAndAppend(t *testing.T) {
	s := NewStore()
	const n = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			kind := "delta"
			if i%7 == 6 {
				kind = SnapshotKind
			}
			if _, err := s.Append("e", ts(i), kind, []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				snap, deltas, found := s.Replay("e", ts(i-r))
				if !found {
					continue
				}
				before := append([]Event(nil), deltas...)
				// Appending to the window must copy, never write into the
				// row's spare capacity.
				_ = append(deltas, Event{Kind: "scribble"})
				for j, ev := range deltas {
					if !reflect.DeepEqual(ev, before[j]) {
						t.Errorf("window changed under the reader at %d", j)
						return
					}
				}
				if len(deltas) > 0 && snap.Kind == SnapshotKind && deltas[0].Seq != snap.Seq+1 {
					t.Errorf("deltas start at %d after snapshot %d", deltas[0].Seq, snap.Seq)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for i, ev := range s.Events("e") {
		if ev.Kind == "scribble" || ev.Seq != uint64(i) {
			t.Fatalf("event %d corrupted: %+v", i, ev)
		}
	}
}
