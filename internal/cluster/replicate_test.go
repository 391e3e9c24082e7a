package cluster

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

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

// TestPlogShipApplyRoundTrip: extract → seal → ship → apply reproduces the
// origin partition on a replica — events, tier split and counters — for
// both a tail-following replica and one catching up from offset zero
// through sealed segments, across rounds whose snapshots land mid-round.
func TestPlogShipApplyRoundTrip(t *testing.T) {
	origin := journal.NewStore()
	lg := newPlog()

	fillOrigin(t, origin, 0, 8)
	lg.extract(origin.DumpPartition(0))
	lg.seal(4, 0)
	follower := journal.NewStore()
	off, err := applyShipment(follower, 0, 0, lg.ship(0, 4))
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
	lg.seal(4, 0)

	// Tail follower continues from its offset; a cold replica replays the
	// sealed segments from zero.
	off, err = applyShipment(follower, 0, off, lg.ship(off, 4))
	if err != nil {
		t.Fatal(err)
	}
	cold := journal.NewStore()
	sh := lg.ship(0, 4)
	if !sh.Catchup || len(sh.Segments) == 0 {
		t.Fatalf("cold ship should replay sealed segments: %+v", sh)
	}
	coldOff, err := applyShipment(cold, 0, 0, sh)
	if err != nil {
		t.Fatal(err)
	}
	if coldOff != off {
		t.Fatalf("cold replica at %d, tail follower at %d", coldOff, off)
	}
	assertReplicaMatches(t, "follower", origin, follower)
	assertReplicaMatches(t, "cold replica", origin, cold)
}

// TestPlogMidSegmentResume: a replica whose offset lands inside a sealed
// segment re-receives that whole segment and skips the prefix.
func TestPlogMidSegmentResume(t *testing.T) {
	origin := journal.NewStore()
	lg := newPlog()
	fillOrigin(t, origin, 0, 10)
	lg.extract(origin.DumpPartition(0))
	lg.seal(4, 0)
	if lg.sealedN == 0 {
		t.Fatal("nothing sealed")
	}

	mid := lg.sealedN - 2 // inside the last sealed segment
	replica := journal.NewStore()
	if _, err := applyShipment(replica, 0, 0, shipment{Start: 0, Tail: lg.records[:mid]}); err != nil {
		t.Fatal(err)
	}
	sh := lg.ship(mid, 4)
	if sh.Start >= mid || len(sh.Segments) == 0 {
		t.Fatalf("mid-segment ship = %+v", sh)
	}
	off, err := applyShipment(replica, 0, mid, sh)
	if err != nil {
		t.Fatal(err)
	}
	if off != len(lg.records) {
		t.Fatalf("resumed replica applied %d of %d", off, len(lg.records))
	}
}

func TestApplyShipmentRefusesCorruptSegment(t *testing.T) {
	origin := journal.NewStore()
	lg := newPlog()
	fillOrigin(t, origin, 0, 10)
	lg.extract(origin.DumpPartition(0))
	lg.seal(4, 0)
	sh := lg.ship(0, 4)
	bad := make([][]byte, len(sh.Segments))
	for i, s := range sh.Segments {
		bad[i] = append([]byte(nil), s...)
	}
	bad[0][len(bad[0])/2] ^= 1
	sh.Segments = bad
	replica := journal.NewStore()
	if _, err := applyShipment(replica, 0, 0, sh); err == nil {
		t.Fatal("corrupt segment applied")
	}
	if n := len(replica.Entities()); n != 0 {
		t.Fatalf("refused ship still wrote %d rows", n)
	}
}

// TestApplyShipmentRefusesUncoveredOffset: a shipment that starts past the
// replica's offset, or ends before it, cannot bring the replica forward and
// is refused with the replica untouched.
func TestApplyShipmentRefusesUncoveredOffset(t *testing.T) {
	origin := journal.NewStore()
	lg := newPlog()
	fillOrigin(t, origin, 0, 4)
	lg.extract(origin.DumpPartition(0))
	for _, tc := range []struct {
		name string
		from int
		sh   shipment
	}{
		{"starts past the offset", 0, shipment{Start: 2, Tail: lg.records[2:]}},
		{"ends before the offset", len(lg.records) + 1, lg.ship(0, 4)},
	} {
		replica := journal.NewStore()
		off, err := applyShipment(replica, 0, tc.from, tc.sh)
		if err == nil || !strings.Contains(err.Error(), "does not cover offset") {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		if off != tc.from || len(replica.Entities()) != 0 {
			t.Fatalf("%s: offset %d, %d rows", tc.name, off, len(replica.Entities()))
		}
	}
}

// TestWireRecord: ev records decode to what was encoded and re-encode to
// the same bytes; anything the encoder would not emit — including the
// tier-split control records earlier logs carried under tag 0x02 — is
// ErrBadWireRecord, which applyShipment passes up with the replica
// untouched. wireEvents are well-formed records' contents, edge values
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

	for name, rec := range badWireRecords() {
		if _, err := decodeWire(rec); !errors.Is(err, ErrBadWireRecord) {
			t.Errorf("%s: err = %v, want ErrBadWireRecord", name, err)
		}
		replica := journal.NewStore()
		off, err := applyShipment(replica, 0, 0, shipment{Tail: [][]byte{rec}})
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
		{Nodes: 2, ReplicationFactor: 3},
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
