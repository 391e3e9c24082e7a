package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"censysmap/internal/journal"
)

// decodeRecords runs a record stream through the partition decoder.
func decodeRecords(payloads [][]byte) (journal.PartitionDump, error) {
	pd := &partitionDecoder{}
	for i, p := range payloads {
		if err := pd.next(p); err != nil {
			return journal.PartitionDump{}, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return pd.finish()
}

// genDump builds a random partition dump in the canonical shape a decode
// yields (nil for empty rows and payloads, UTC instants, events carrying
// their row's entity and their index as seq).
func genDump(rng *rand.Rand) journal.PartitionDump {
	kinds := []string{"service_found", "service_changed", "service_pending", "service_restored",
		"service_removed", journal.SnapshotKind, "", "custom_kind", "kind\twith\ttabs", "вид"}
	entities := []string{"10.0.1.7", "", `web "édition" <prod>`, "主机-7", "\x00\xff", "sha256:ab12"}
	var d journal.PartitionDump
	for ri, n := 0, rng.Intn(5); ri < n; ri++ {
		row := journal.RowDump{Entity: fmt.Sprintf("%s#%d", entities[rng.Intn(len(entities))], ri)}
		for i, n := 0, rng.Intn(3)*rng.Intn(4); i < n; i++ {
			var payload []byte
			if l := rng.Intn(4) * rng.Intn(90); l > 0 {
				payload = make([]byte, l)
				rng.Read(payload)
			}
			row.Events = append(row.Events, journal.Event{
				Entity: row.Entity, Seq: uint64(i),
				Time: time.Unix(0, rng.Int63()-rng.Int63()).UTC(),
				Kind: kinds[rng.Intn(len(kinds))], Payload: payload,
			})
		}
		d.Rows = append(d.Rows, row)
	}
	return d
}

// TestRecordRoundTrip: encodePartition → decode yields the same dump, and
// re-encoding the decoded dump yields the same bytes — the determinism
// CRC-proven snapshot repair rests on. Covers empty payloads, unknown and
// empty kinds, eventless rows, an empty partition (no records at all),
// non-ASCII and non-UTF-8 entities, and 64-bit extremes.
func TestRecordRoundTrip(t *testing.T) {
	at := func(m int) time.Time { return time.Date(2026, 4, 1, 0, m, 0, 0, time.UTC) }
	ev := func(ent string, seq uint64, m int, kind string, payload []byte) journal.Event {
		return journal.Event{Entity: ent, Seq: seq, Time: at(m), Kind: kind, Payload: payload}
	}
	dumps := map[string]journal.PartitionDump{
		"plain": {
			Rows: []journal.RowDump{
				{Entity: "10.0.1.7", Events: []journal.Event{
					ev("10.0.1.7", 0, 0, "service_found", []byte(`{"service":{"port":443}}`)),
					ev("10.0.1.7", 1, 1, journal.SnapshotKind, []byte(`{"state":"up"}`)),
					ev("10.0.1.7", 2, 2, "service_changed", []byte{0x00, 0xff, 0x7f}),
				}},
				{Entity: "10.0.1.9", Events: []journal.Event{ev("10.0.1.9", 0, 3, "custom_kind", nil)}},
			},
		},
		"extremes": {
			Rows: []journal.RowDump{
				{Entity: "big", Events: []journal.Event{
					ev("big", 0, 5, "service_pending", nil),
					{Entity: "big", Seq: 1, Time: time.Unix(0, -1<<63).UTC(), Kind: "k"},
					{Entity: "big", Seq: 2, Time: time.Unix(0, 1<<63-1).UTC(), Kind: "k"},
				}},
				{Entity: "eventless"},
			},
		},
		"empty": {},
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		dumps[fmt.Sprintf("generated-%d", i)] = genDump(rng)
	}
	for name, d := range dumps {
		recs := encodePartition(d)
		got, err := decodeRecords(recs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, d) {
			t.Fatalf("%s: round trip drifted:\n got  %+v\n want %+v", name, got, d)
		}
		if again := encodePartition(got); !reflect.DeepEqual(again, recs) {
			t.Fatalf("%s: re-encoding the decoded dump changed bytes", name)
		}
	}
	if recs := encodePartition(journal.PartitionDump{}); len(recs) != 0 {
		t.Fatalf("empty partition encoded to %d records", len(recs))
	}

	// An empty partition saves as one zero-record segment file with no
	// doublewrite sidecar, and loads back empty.
	dir := t.TempDir()
	s := journal.NewPartitioned(2)
	if _, err := s.Append("10.0.0.1", at(0), "service_found", nil); err != nil {
		t.Fatal(err)
	}
	empty := 1 - shardOf(t, s, "10.0.0.1")
	if err := Save(dir, []NamedStore{{Name: "journal", Store: s}}, nil, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	pdir := filepath.Join(dir, "stores", "journal", fmt.Sprintf("p%04d", empty))
	seg, err := os.ReadFile(filepath.Join(pdir, "records.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if scan, err := InspectSegment(seg); err != nil || scan.Sealed || len(scan.Frames) != 0 {
		t.Fatalf("empty partition segment: %+v, %v", scan, err)
	}
	if _, err := os.Stat(filepath.Join(pdir, "tail.dwb")); !os.IsNotExist(err) {
		t.Fatalf("empty partition has a doublewrite sidecar: %v", err)
	}
	res, err := Load(dir, LoadOptions{})
	if err != nil || !res.Report.Clean() {
		t.Fatalf("load: %v, findings %+v", err, res.Report.Findings)
	}
	if !reflect.DeepEqual(dumpAll(res.Stores["journal"]), dumpAll(s)) {
		t.Fatal("store with an empty partition did not round-trip")
	}
}

// shardOf reports which of s's partitions holds entity.
func shardOf(t *testing.T, s *journal.Store, entity string) int {
	t.Helper()
	for i := 0; i < s.Partitions(); i++ {
		for _, r := range s.DumpPartition(i).Rows {
			if r.Entity == entity {
				return i
			}
		}
	}
	t.Fatalf("%s in no partition", entity)
	return -1
}

// oldMeta and oldRow are records of format version 3, whose partitions
// began with a counter record (tag 1) and whose row records carried the tier
// split and sequence bookkeeping. Today's decoder rejects both.
var (
	oldMeta = []byte{1, 12, 3, 40, 2}            // ssd_reads hdd_reads appends snaps
	oldRow  = []byte{TagRow, 1, 'e', 2, 3, 1, 2} // entity last_snap=1 next_seq=3 hdd=1 events=2
)

// TestRecordMalformed: the record decoder rejects every deviation from the
// encoder's output with ErrBadRecord, and the partition decoder rejects
// well-formed records in an impossible order or with an event whose seq is
// not its index in the row.
func TestRecordMalformed(t *testing.T) {
	row := appendRow(nil, RowRecord{Entity: "e", Events: 1})
	event := func(seq uint64) []byte { return appendEvent(nil, EventRecord{Seq: seq, Kind: "k"}) }
	overflow := append(bytes.Repeat([]byte{0xff}, 10), 0x01)
	overInt := binary.AppendUvarint(nil, 1<<63)

	records := map[string][]byte{
		"empty":             {},
		"unknown tag":       {9, 0, 0, 0, 0},
		"json envelope":     []byte(`{"t":"meta","meta":{"ssd_reads":0}}`),
		"version 3 meta":    oldMeta,
		"version 3 row":     oldRow,
		"truncated row":     row[:len(row)-1],
		"trailing byte":     append(append([]byte(nil), row...), 0),
		"varint overflow":   append([]byte{TagRow, 0}, overflow...),
		"padded varint":     {TagRow, 0, 0x80, 0x00},
		"entity past end":   {TagRow, 5, 'a', 'b'},
		"count over MaxInt": append([]byte{TagRow, 0}, overInt...),
		"truncated ns":      {TagEvent, 1, 0, 0, 0},
		"payload past end":  append(event(1)[:len(event(1))-1], 200),
		"event cut short":   event(1)[:len(event(1))-1],
	}
	for name, b := range records {
		if _, err := DecodeRecord(b); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: err = %v, want ErrBadRecord", name, err)
		}
	}

	streams := map[string][][]byte{
		"event outside row": {event(0)},
		"overdeclared row":  {row, event(0), event(1)},
		"underfilled row":   {row, row},
		"underfilled tail":  {row},
		"bad record":        {row, {TagEvent}},
		"seq not index":     {row, event(1)},
		"seq gap":           {appendRow(nil, RowRecord{Entity: "e", Events: 2}), event(0), event(2)},
	}
	for name, payloads := range streams {
		if _, err := decodeRecords(payloads); err == nil {
			t.Errorf("%s: decoded, want an error", name)
		}
	}
}

// appendRecord re-encodes a decoded record.
func appendRecord(dst []byte, rec Record) []byte {
	if rec.Tag == TagRow {
		return appendRow(dst, rec.Row)
	}
	return appendEvent(dst, rec.Ev)
}

// FuzzRecordDecode: whatever the bytes, DecodeRecord never panics or
// over-reads, fails only with ErrBadRecord, and accepts only input that
// re-encodes to itself — so no trailing or padded bytes ever pass. Seeds are
// a real encoded partition and format version 3's counter and row records
// (which must be rejected), each with a truncation, a trailing byte and bit
// flips.
func FuzzRecordDecode(f *testing.F) {
	s := journal.NewPartitioned(1)
	base := time.Unix(0, 1700000000e9).UTC()
	for i := 0; i < 3; i++ {
		entity := fmt.Sprintf("10.0.0.%d", i)
		if _, err := s.Append(entity, base, "service_found", []byte(`{"port":443}`)); err != nil {
			f.Fatal(err)
		}
		if _, err := s.AppendSnapshot(entity, base, []byte(`{"state":"up"}`)); err != nil {
			f.Fatal(err)
		}
	}
	for _, rec := range append(encodePartition(s.DumpPartition(0)), oldMeta, oldRow) {
		f.Add(rec)
		f.Add(rec[:len(rec)-1])
		f.Add(append(append([]byte(nil), rec...), 0))
		for _, bit := range []int{0, 9, len(rec)*8 - 1} {
			flipped := append([]byte(nil), rec...)
			flipped[bit/8] ^= 1 << (bit % 8)
			f.Add(flipped)
		}
	}
	f.Add([]byte{})

	for _, old := range [][]byte{oldMeta, oldRow} {
		if _, err := DecodeRecord(old); err == nil {
			f.Fatalf("version 3 record %x decoded", old)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if again := appendRecord(nil, rec); !bytes.Equal(again, data) {
			t.Fatalf("accepted non-canonical input:\n in  %x\n out %x", data, again)
		}
	})
}
