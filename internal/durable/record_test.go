package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
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
// yields (nil for empty tiers and payloads, UTC instants, events carrying
// their row's entity).
func genDump(rng *rand.Rand) journal.PartitionDump {
	kinds := []string{"service_found", "service_changed", "service_pending", "service_restored",
		"service_removed", journal.SnapshotKind, "", "custom_kind", "kind\twith\ttabs", "вид"}
	entities := []string{"10.0.1.7", "", `web "édition" <prod>`, "主机-7", "\x00\xff", "sha256:ab12"}
	d := journal.PartitionDump{
		SSDReads: rng.Uint64() >> uint(rng.Intn(64)), HDDReads: uint64(rng.Intn(5)),
		Appends: rng.Uint64() >> uint(rng.Intn(64)), Snaps: uint64(rng.Intn(300)),
	}
	for ri, n := 0, rng.Intn(5); ri < n; ri++ {
		row := journal.RowDump{
			Entity:   fmt.Sprintf("%s#%d", entities[rng.Intn(len(entities))], ri),
			LastSnap: rng.Intn(40) - 8,
			NextSeq:  rng.Uint64() >> uint(rng.Intn(64)),
		}
		seq := uint64(rng.Intn(3))
		events := func(n int) []journal.Event {
			var out []journal.Event
			for i := 0; i < n; i++ {
				seq += 1 + uint64(rng.Intn(2))
				var payload []byte
				if l := rng.Intn(4) * rng.Intn(90); l > 0 {
					payload = make([]byte, l)
					rng.Read(payload)
				}
				out = append(out, journal.Event{
					Entity: row.Entity, Seq: seq,
					Time: time.Unix(0, rng.Int63()-rng.Int63()).UTC(),
					Kind: kinds[rng.Intn(len(kinds))], Payload: payload,
				})
			}
			return out
		}
		row.HDD = events(rng.Intn(3) * rng.Intn(3))
		row.SSD = events(rng.Intn(4))
		d.Rows = append(d.Rows, row)
	}
	return d
}

// TestRecordRoundTrip: encodePartition → decode yields the same dump, and
// re-encoding the decoded dump yields the same bytes — the determinism
// CRC-proven snapshot repair rests on. Covers empty payloads, unknown and
// empty kinds, negative last_snap, HDD/SSD splits, non-ASCII and non-UTF-8
// entities, and 64-bit extremes.
func TestRecordRoundTrip(t *testing.T) {
	at := func(m int) time.Time { return time.Date(2026, 4, 1, 0, m, 0, 0, time.UTC) }
	ev := func(ent string, seq uint64, m int, kind string, payload []byte) journal.Event {
		return journal.Event{Entity: ent, Seq: seq, Time: at(m), Kind: kind, Payload: payload}
	}
	dumps := map[string]journal.PartitionDump{
		"plain": {
			SSDReads: 12, HDDReads: 3, Appends: 40, Snaps: 2,
			Rows: []journal.RowDump{
				{Entity: "10.0.1.7", LastSnap: 1, NextSeq: 4,
					HDD: []journal.Event{ev("10.0.1.7", 1, 0, "service_found", []byte(`{"service":{"port":443}}`))},
					SSD: []journal.Event{
						ev("10.0.1.7", 2, 1, journal.SnapshotKind, []byte(`{"state":"up"}`)),
						ev("10.0.1.7", 3, 2, "service_changed", []byte{0x00, 0xff, 0x7f}),
					}},
				{Entity: "10.0.1.9", LastSnap: -1, NextSeq: 2,
					SSD: []journal.Event{ev("10.0.1.9", 1, 3, "custom_kind", nil)}},
			},
		},
		"extremes": {
			SSDReads: 1<<64 - 1,
			Rows: []journal.RowDump{
				{Entity: "big", LastSnap: 2, NextSeq: 1<<64 - 1,
					SSD: []journal.Event{
						ev("big", 1<<63, 5, "service_pending", nil),
						{Entity: "big", Seq: 1<<63 + 1, Time: time.Unix(0, -1<<63).UTC(), Kind: "k"},
						{Entity: "big", Seq: 1<<63 + 2, Time: time.Unix(0, 1<<63-1).UTC(), Kind: "k"},
					}},
				{Entity: "eventless", LastSnap: -1},
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
}

// TestRecordMalformed: the record decoder rejects every deviation from the
// encoder's output with ErrBadRecord, and the partition decoder rejects
// well-formed records in an impossible order.
func TestRecordMalformed(t *testing.T) {
	meta := appendMeta(nil, MetaRecord{})
	row := appendRow(nil, RowRecord{Entity: "e", Events: 1})
	event := func(seq uint64) []byte { return appendEvent(nil, EventRecord{Seq: seq, Kind: "k"}) }
	overflow := append(bytes.Repeat([]byte{0xff}, 10), 0x01)
	overInt := binary.AppendUvarint(nil, 1<<63)

	records := map[string][]byte{
		"empty":             {},
		"unknown tag":       {9, 0, 0, 0, 0},
		"json envelope":     []byte(`{"t":"meta","meta":{"ssd_reads":0}}`),
		"truncated meta":    meta[:len(meta)-1],
		"trailing byte":     append(append([]byte(nil), meta...), 0),
		"varint overflow":   append([]byte{TagMeta}, overflow...),
		"padded varint":     {TagMeta, 0x80, 0x00, 0, 0, 0},
		"entity past end":   {TagRow, 5, 'a', 'b'},
		"hdd exceeds total": appendRow(nil, RowRecord{Entity: "e", HDD: 2, Events: 1}),
		"count over MaxInt": append(append([]byte{TagRow, 0, 0, 0}, overInt...), overInt...),
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
		"missing meta":      {},
		"row before meta":   {row},
		"double meta":       {meta, meta},
		"event outside row": {meta, event(1)},
		"overdeclared row":  {meta, row, event(1), event(2)},
		"underfilled row":   {meta, row, row},
		"underfilled tail":  {meta, row},
		"bad record":        {meta, row, {TagEvent}},
	}
	for name, payloads := range streams {
		if _, err := decodeRecords(payloads); err == nil {
			t.Errorf("%s: decoded, want an error", name)
		}
	}
}

// appendRecord re-encodes a decoded record.
func appendRecord(dst []byte, rec Record) []byte {
	switch rec.Tag {
	case TagMeta:
		return appendMeta(dst, rec.Meta)
	case TagRow:
		return appendRow(dst, rec.Row)
	default:
		return appendEvent(dst, rec.Ev)
	}
}

// FuzzRecordDecode: whatever the bytes, DecodeRecord never panics or
// over-reads, fails only with ErrBadRecord, and accepts only input that
// re-encodes to itself — so no trailing or padded bytes ever pass. Seeds are
// a real encoded partition plus a truncation and bit flips of each record.
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
	for _, rec := range encodePartition(s.DumpPartition(0)) {
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
