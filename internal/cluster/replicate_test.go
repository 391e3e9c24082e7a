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
// offset `from`, migrating halfway.
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
		if r == rounds/2 {
			origin.Migrate()
		}
	}
}

// TestPlogShipApplyRoundTrip: extract → seal → ship → apply reproduces the
// origin partition on a replica, for both a tail-following replica and one
// catching up from offset zero through sealed segments.
func TestPlogShipApplyRoundTrip(t *testing.T) {
	origin := journal.NewStore()
	lg := newPlog()

	// Two extraction rounds with a mid-round migrate in the first.
	fillOrigin(t, origin, 0, 8)
	lg.extract(origin.DumpPartition(0), 1)
	lg.seal(4, 0)
	follower := journal.NewStore()
	off, err := applyShipment(follower, 0, 0, lg.ship(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if off != len(lg.records) {
		t.Fatalf("follower applied %d of %d", off, len(lg.records))
	}

	fillOrigin(t, origin, 8, 5)
	origin.Migrate()
	added := lg.extract(origin.DumpPartition(0), 2)
	if added == 0 {
		t.Fatal("second round extracted nothing")
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

	od := origin.DumpPartition(0)
	for _, replica := range []*journal.Store{follower, cold} {
		rd := replica.DumpPartition(0)
		if len(od.Rows) != len(rd.Rows) || od.Appends != rd.Appends || od.Snaps != rd.Snaps {
			t.Fatalf("replica counters diverged: %+v vs %+v", od, rd)
		}
		for i := range od.Rows {
			o, r := od.Rows[i], rd.Rows[i]
			if o.Entity != r.Entity || o.LastSnap != r.LastSnap || o.NextSeq != r.NextSeq ||
				len(o.HDD) != len(r.HDD) || len(o.SSD) != len(r.SSD) {
				t.Fatalf("row %s diverged: %+v vs %+v", o.Entity, o, r)
			}
		}
	}
}

// TestPlogMidSegmentResume: a replica whose offset lands inside a sealed
// segment re-receives that whole segment and skips the prefix.
func TestPlogMidSegmentResume(t *testing.T) {
	origin := journal.NewStore()
	lg := newPlog()
	fillOrigin(t, origin, 0, 10)
	lg.extract(origin.DumpPartition(0), 1)
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
	lg.extract(origin.DumpPartition(0), 1)
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

// TestWireRecord: ev and ctl records decode to what was encoded and
// re-encode to the same bytes; anything the encoder would not emit is
// ErrBadWireRecord, which applyShipment passes up with the replica untouched.
// wireEvents and wireTiers are well-formed wire records' contents, edge
// values included.
var (
	wireEvents = []journal.Event{
		{Entity: "10.1.0.1", Seq: 3, Time: time.Date(2026, 1, 1, 0, 0, 0, 5, time.UTC), Kind: "service_found", Payload: []byte{0, 0xff, '"', '{'}},
		{Entity: "", Seq: 1<<64 - 1, Time: time.Unix(0, -1<<63).UTC(), Kind: ""},
	}
	wireTiers = []map[string]int{{}, {"b": 2, "a": 0, "cert:aa": 1 << 40}}
)

// badWireRecords are malformed wire records, each one defect.
func badWireRecords() map[string][]byte {
	at := time.Date(2026, 1, 1, 0, 0, 0, 5, time.UTC)
	ev := appendWireEv(nil, journal.Event{Entity: "e", Seq: 1, Time: at, Kind: "k", Payload: []byte("p")})
	ctl := appendWireCtl(nil, 1, map[string]int{"a": 1, "b": 2})
	swapped := append([]byte(nil), ctl...)
	swapped[4], swapped[7] = 'b', 'a' // tag round n | 1 'a' 1 | 1 'b' 2
	duplicate := append([]byte(nil), ctl...)
	duplicate[7] = 'a'
	return map[string][]byte{
		"empty":           {},
		"unknown tag":     {9},
		"json envelope":   []byte(`{"t":"ev","e":"10.1.0.1"}`),
		"truncated ev":    ev[:len(ev)-1],
		"trailing byte":   append(append([]byte(nil), ev...), 0),
		"padded varint":   {wireCtl, 0x80, 0x00, 0},
		"tier overcount":  append([]byte{wireCtl, 1, 3}, ctl[3:]...),
		"unsorted tiers":  swapped,
		"duplicate tiers": duplicate,
	}
}

func TestWireRecord(t *testing.T) {
	for _, ev := range wireEvents {
		rec := appendWireEv(nil, ev)
		tag, got, tiers, err := decodeWire(rec)
		if err != nil || tag != wireEv || tiers != nil || !reflect.DeepEqual(got, ev) {
			t.Fatalf("ev round trip: tag %d, %+v, %v, %v; want %+v", tag, got, tiers, err, ev)
		}
		if again := appendWireEv(nil, got); !bytes.Equal(again, rec) {
			t.Fatalf("ev re-encoded to different bytes")
		}
	}
	for _, want := range wireTiers {
		rec := appendWireCtl(nil, 7, want)
		tag, _, tiers, err := decodeWire(rec)
		if err != nil || tag != wireCtl || !reflect.DeepEqual(tiers, want) {
			t.Fatalf("ctl round trip: tag %d, %v, %v; want %v", tag, tiers, err, want)
		}
		if again := appendWireCtl(nil, 7, tiers); !bytes.Equal(again, rec) {
			t.Fatalf("ctl re-encoded to different bytes")
		}
	}

	for name, rec := range badWireRecords() {
		if _, _, _, err := decodeWire(rec); !errors.Is(err, ErrBadWireRecord) {
			t.Errorf("%s: err = %v, want ErrBadWireRecord", name, err)
		}
		replica := journal.NewStore()
		off, err := applyShipment(replica, 0, 0, shipment{Tail: [][]byte{rec}})
		if !errors.Is(err, ErrBadWireRecord) || off != 0 || len(replica.Entities()) != 0 {
			t.Errorf("%s: applyShipment offset %d, err %v", name, off, err)
		}
	}
}

// FuzzWireRecord: decodeWire never panics on any bytes, and every ev record
// it accepts re-encodes to the identical bytes — an event has one encoding,
// so a replica's log is byte-for-byte the leader's.
func FuzzWireRecord(f *testing.F) {
	for _, ev := range wireEvents {
		f.Add(appendWireEv(nil, ev))
	}
	for _, tiers := range wireTiers {
		f.Add(appendWireCtl(nil, 7, tiers))
	}
	for _, rec := range badWireRecords() {
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		tag, ev, _, err := decodeWire(rec)
		if err != nil || tag != wireEv {
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
