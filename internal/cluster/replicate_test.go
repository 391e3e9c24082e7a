package cluster

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"censysmap/internal/durable"
	"censysmap/internal/journal"
)

// fillOrigin appends rounds of events for a few entities starting at round
// offset `from`; every third round is a snapshot, so the origin's HDD tier
// grows within the rounds a single extraction covers.
func fillOrigin(t *testing.T, origin *journal.Store, from, rounds int) {
	t.Helper()
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(from) * time.Hour)
	entities := []string{"10.1.0.1", "10.1.0.2", "cert:aa"}
	for r := 0; r < rounds; r++ {
		for _, e := range entities {
			kind := "delta"
			if r%3 == 2 {
				kind = journal.SnapshotKind
			}
			if _, err := origin.Append(e, t0.Add(time.Duration(r)*time.Minute), kind, []byte{byte(r)}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// assertReplicaMatches requires replica to hold origin's partition 0
// exactly: the same dump and the same Stats, tier fields included.
func assertReplicaMatches(t *testing.T, name string, origin, replica *journal.Store) {
	t.Helper()
	if od, rd := origin.DumpPartition(0), replica.DumpPartition(0); !reflect.DeepEqual(od, rd) {
		t.Fatalf("%s diverged from the origin:\n origin  %+v\n replica %+v", name, od, rd)
	}
	if os, rs := origin.Stats(), replica.Stats(); os != rs {
		t.Fatalf("%s stats diverged: %+v vs %+v", name, os, rs)
	}
}

// TestPlogShipApplyRoundTrip: extract → ship → apply reproduces the origin
// partition on a replica — events, tier split and counters — for both a
// tail-following replica and one catching up from offset zero, across rounds
// whose snapshots land mid-round. Only the cold replica's ship is a catch-up.
func TestPlogShipApplyRoundTrip(t *testing.T) {
	origin := journal.NewStore()
	lg := newPlog()

	fillOrigin(t, origin, 0, 8)
	lg.extract(origin.DumpPartition(0))
	follower := journal.NewStore()
	seg, catchup := lg.ship(0, 0)
	if catchup {
		t.Fatal("the first round's ship to an empty follower is not a catch-up")
	}
	off, err := applyShipment(follower, 0, 0, seg)
	if err != nil {
		t.Fatal(err)
	}
	if off != len(lg.records) {
		t.Fatalf("follower applied %d of %d", off, len(lg.records))
	}
	assertReplicaMatches(t, "follower after round 1", origin, follower)
	hddBefore := origin.Stats().HDDEvents

	fillOrigin(t, origin, 8, 5)
	if added := lg.extract(origin.DumpPartition(0)); added != 15 {
		t.Fatalf("second round extracted %d events, want 15", added)
	}
	if origin.Stats().HDDEvents <= hddBefore {
		t.Fatal("second round's snapshots did not grow the HDD tier")
	}

	// Tail follower continues from its offset; a cold replica replays the
	// whole log from zero. Each ship is one sealed segment holding exactly
	// the records its replica lacks.
	seg, catchup = lg.ship(0, off)
	if catchup {
		t.Fatal("routine round ship flagged as catch-up")
	}
	if recs, err := durable.DecodeShippedSegment(seg, durable.KindReplica, 0); err != nil || len(recs) != 15 {
		t.Fatalf("tail ship holds %d records (%v), want 15", len(recs), err)
	}
	if off, err = applyShipment(follower, 0, off, seg); err != nil {
		t.Fatal(err)
	}
	cold := journal.NewStore()
	seg, catchup = lg.ship(0, 0)
	if !catchup {
		t.Fatal("cold replica's ship not flagged as catch-up")
	}
	coldOff, err := applyShipment(cold, 0, 0, seg)
	if err != nil {
		t.Fatal(err)
	}
	if coldOff != off || off != len(lg.records) {
		t.Fatalf("cold replica at %d, tail follower at %d, log %d", coldOff, off, len(lg.records))
	}
	assertReplicaMatches(t, "follower", origin, follower)
	assertReplicaMatches(t, "cold replica", origin, cold)
}

// TestApplyShipmentRefusesFlippedByte: a routine round's ship with any one
// byte flipped — header, frame, payload or footer — is refused, and the
// replica keeps its offset and its rows.
func TestApplyShipmentRefusesFlippedByte(t *testing.T) {
	origin := journal.NewStore()
	lg := newPlog()
	fillOrigin(t, origin, 0, 4)
	lg.extract(origin.DumpPartition(0))
	replica := journal.NewStore()
	seg, _ := lg.ship(0, 0)
	off, err := applyShipment(replica, 0, 0, seg)
	if err != nil {
		t.Fatal(err)
	}
	fillOrigin(t, origin, 4, 2)
	lg.extract(origin.DumpPartition(0))
	seg, catchup := lg.ship(0, off)
	if catchup {
		t.Fatal("want a routine tail ship")
	}
	before := replica.DumpPartition(0)
	for i := range seg {
		bad := append([]byte(nil), seg...)
		bad[i] ^= 0xff
		got, err := applyShipment(replica, 0, off, bad)
		if err == nil || got != off {
			t.Fatalf("byte %d of %d flipped: offset %d, err %v", i, len(seg), got, err)
		}
		if !reflect.DeepEqual(replica.DumpPartition(0), before) {
			t.Fatalf("byte %d of %d flipped: refused ship still wrote to the replica", i, len(seg))
		}
	}
	if _, err := applyShipment(replica, 0, off, seg); err != nil {
		t.Fatal(err)
	}
	assertReplicaMatches(t, "replica", origin, replica)
}

func TestApplyShipmentRefusesCorruptSegment(t *testing.T) {
	origin := journal.NewStore()
	lg := newPlog()
	fillOrigin(t, origin, 0, 10)
	lg.extract(origin.DumpPartition(0))
	seg, _ := lg.ship(0, 0)
	for name, bad := range map[string][]byte{
		"flipped bit":     flipped(seg, len(seg)/2),
		"no footer":       seg[:len(seg)-24],
		"other partition": durable.BuildSegment(durable.KindReplica, 1, lg.records),
		"journal kind":    durable.BuildSegment(durable.KindJournal, 0, lg.records),
	} {
		replica := journal.NewStore()
		if _, err := applyShipment(replica, 0, 0, bad); err == nil {
			t.Fatalf("%s: corrupt segment applied", name)
		}
		if n := len(replica.Entities()); n != 0 {
			t.Fatalf("%s: refused ship still wrote %d rows", name, n)
		}
	}
}

// flipped returns a copy of b with one bit of byte i flipped.
func flipped(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 1
	return out
}

// TestWireRecord: ev records decode to what was encoded and re-encode to
// the same bytes; anything the encoder would not emit — including the
// tier-split control records earlier logs carried under tag 0x02 — is
// ErrBadWireRecord, which applyShipment passes up with the replica
// untouched, however many good records precede it. wireEvents are well-formed records' contents, edge values
// included.
var wireEvents = []journal.Event{
	{Entity: "10.1.0.1", Seq: 3, Time: time.Date(2026, 1, 1, 0, 0, 0, 5, time.UTC), Kind: "service_found", Payload: []byte{0, 0xff, '"', '{'}},
	{Entity: "", Seq: 1<<64 - 1, Time: time.Unix(0, -1<<63).UTC(), Kind: ""},
}

// badWireRecords are malformed wire records, each one defect.
func badWireRecords() map[string][]byte {
	at := time.Date(2026, 1, 1, 0, 0, 0, 5, time.UTC)
	ev := appendWireEv(nil, journal.Event{Entity: "e", Seq: 1, Time: at, Kind: "k", Payload: []byte("p")})
	return map[string][]byte{
		"empty":            {},
		"unknown tag":      {9},
		"json envelope":    []byte(`{"t":"ev","e":"10.1.0.1"}`),
		"truncated ev":     ev[:len(ev)-1],
		"trailing byte":    append(append([]byte(nil), ev...), 0),
		"padded varint":    append([]byte{wireEv, 0x80, 0x00}, ev[2:]...),
		"entity past end":  {wireEv, 5, 'a'},
		"old empty ctl":    {2, 7, 0},                       // round 7, no tiers
		"old ctl":          {2, 7, 2, 1, 'a', 0, 1, 'b', 2}, // round 7, a→0, b→2
		"old ctl overflow": {2, 1, 3, 1, 'a', 1, 1, 'b', 2}, // declares 3 tiers, holds 2
		"old ctl unsorted": {2, 1, 2, 1, 'b', 1, 1, 'a', 2}, // entities out of order
	}
}

func TestWireRecord(t *testing.T) {
	for _, ev := range wireEvents {
		rec := appendWireEv(nil, ev)
		got, err := decodeWire(rec)
		if err != nil || !reflect.DeepEqual(got, ev) {
			t.Fatalf("ev round trip: %+v, %v; want %+v", got, err, ev)
		}
		if again := appendWireEv(nil, got); !bytes.Equal(again, rec) {
			t.Fatalf("ev re-encoded to different bytes")
		}
	}

	// Each bad record ships behind a good one, which must not be applied
	// either: a ship's records are all decoded before any is applied.
	good := appendWireEv(nil, journal.Event{Entity: "10.1.0.9", Time: wireEvents[0].Time, Kind: "k"})
	for name, rec := range badWireRecords() {
		if _, err := decodeWire(rec); !errors.Is(err, ErrBadWireRecord) {
			t.Errorf("%s: err = %v, want ErrBadWireRecord", name, err)
		}
		replica := journal.NewStore()
		off, err := applyShipment(replica, 0, 0, durable.BuildSegment(durable.KindReplica, 0, [][]byte{good, rec}))
		if !errors.Is(err, ErrBadWireRecord) || off != 0 || len(replica.Entities()) != 0 {
			t.Errorf("%s: applyShipment offset %d, err %v", name, off, err)
		}
	}
}

// FuzzWireRecord: decodeWire never panics on any bytes, and every record it
// accepts re-encodes to the identical bytes — an event has one encoding, so
// a replica's log is byte-for-byte the leader's.
func FuzzWireRecord(f *testing.F) {
	for _, ev := range wireEvents {
		f.Add(appendWireEv(nil, ev))
	}
	for _, rec := range badWireRecords() {
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		ev, err := decodeWire(rec)
		if err != nil {
			return
		}
		if again := appendWireEv(nil, ev); !bytes.Equal(again, rec) {
			t.Fatalf("ev %+v re-encoded to %x, decoded from %x", ev, again, rec)
		}
	})
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Nodes: 0},
		{Nodes: 3, Faults: []NodeFault{{Round: 1, Node: 5, Down: 2}}},
		{Nodes: 3, Faults: []NodeFault{{Round: 0, Node: 1, Down: 2}}},
	}
	for _, cfg := range cases {
		if _, err := New(nil, cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		} else if !strings.Contains(err.Error(), "cluster:") {
			t.Fatalf("config %+v: unexpected error %v", cfg, err)
		}
	}
}
