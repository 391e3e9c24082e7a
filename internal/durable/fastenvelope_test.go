package durable

import (
	"reflect"
	"testing"
	"time"

	"censysmap/internal/journal"
)

// decodeBoth runs one record stream through a fast and a legacy decoder and
// asserts identical dumps and identical (including absent) errors at every
// step. It returns the dump when both decoders finish clean.
func decodeBoth(t *testing.T, payloads [][]byte) (journal.PartitionDump, bool) {
	t.Helper()
	fast := &partitionDecoder{fastDecode: true}
	slow := &partitionDecoder{}
	for i, p := range payloads {
		fe, se := fast.next(p), slow.next(p)
		if (fe == nil) != (se == nil) || (fe != nil && fe.Error() != se.Error()) {
			t.Fatalf("record %d: fast err %v, slow err %v", i, fe, se)
		}
		if fe != nil {
			return journal.PartitionDump{}, false
		}
	}
	fd, ferr := fast.finish()
	sd, serr := slow.finish()
	if (ferr == nil) != (serr == nil) || (ferr != nil && ferr.Error() != serr.Error()) {
		t.Fatalf("finish: fast err %v, slow err %v", ferr, serr)
	}
	if ferr != nil {
		return journal.PartitionDump{}, false
	}
	if !reflect.DeepEqual(fd, sd) {
		t.Fatalf("dumps differ:\n fast %+v\n slow %+v", fd, sd)
	}
	return fd, true
}

// TestFastEnvelopeDifferential holds the hand-rolled envelope scanner
// equal to the encoding/json decoder over round-tripped dumps, including
// shapes the fast path must punt on (escapes, unicode, huge numbers).
func TestFastEnvelopeDifferential(t *testing.T) {
	at := func(m int) time.Time {
		return time.Date(2026, 4, 1, 0, m, 0, 0, time.UTC)
	}
	ev := func(ent string, seq uint64, m int, kind string, payload []byte) journal.Event {
		return journal.Event{Entity: ent, Seq: seq, Time: at(m).UTC(), Kind: kind, Payload: payload}
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
		"fallback shapes": {
			Rows: []journal.RowDump{
				// Escaped quote and non-ASCII entity: the fast scanner must
				// hand these to encoding/json untouched.
				{Entity: `web "édition" <prod>`, LastSnap: 0, NextSeq: 3,
					SSD: []journal.Event{
						ev(`web "édition" <prod>`, 1, 0, "kind\twith\ttabs", []byte("x")),
						ev(`web "édition" <prod>`, 2, 90, "service_removed", []byte(`{}`)),
					}},
				{Entity: "big", LastSnap: 2, NextSeq: 1<<64 - 1,
					SSD: []journal.Event{ev("big", 1<<63, 5, "service_pending", nil)}},
			},
		},
		"empty": {},
	}
	for name, d := range dumps {
		got, ok := decodeBoth(t, encodePartition(d))
		if !ok {
			t.Fatalf("%s: decoders rejected a round-tripped dump", name)
		}
		if !reflect.DeepEqual(got, d) {
			t.Fatalf("%s: round trip drifted:\n got  %+v\n want %+v", name, got, d)
		}
	}
}

// TestFastEnvelopeMalformed feeds corrupt records to both decoders and
// requires identical error text — the fast path must never accept (or
// re-word) what encoding/json rejects.
func TestFastEnvelopeMalformed(t *testing.T) {
	meta := marshalEnvelope(envelope{T: "meta", Meta: &metaRec{}})
	row := marshalEnvelope(envelope{T: "row", Row: &rowRec{Entity: "e", Events: 1}})
	cases := map[string][][]byte{
		"truncated json":      {meta, row, []byte(`{"t":"ev","ev":{"seq":1`)},
		"bad base64":          {meta, row, []byte(`{"t":"ev","ev":{"seq":1,"ns":0,"kind":"k","payload":"@@@@"}}`)},
		"unknown type":        {meta, []byte(`{"t":"wat"}`)},
		"row before meta":     {row},
		"double meta":         {meta, meta},
		"event outside row":   {meta, marshalEnvelope(envelope{T: "ev", Ev: &evRec{Seq: 1}})},
		"overdeclared row":    {meta, row, marshalEnvelope(envelope{T: "ev", Ev: &evRec{Seq: 1}}), marshalEnvelope(envelope{T: "ev", Ev: &evRec{Seq: 2}})},
		"seq overflow":        {meta, row, []byte(`{"t":"ev","ev":{"seq":99999999999999999999,"ns":0,"kind":"k"}}`)},
		"leading zero":        {meta, row, []byte(`{"t":"ev","ev":{"seq":01,"ns":0,"kind":"k"}}`)},
		"raw control in kind": {meta, row, []byte("{\"t\":\"ev\",\"ev\":{\"seq\":1,\"ns\":0,\"kind\":\"a\x01b\"}}")},
	}
	for name, payloads := range cases {
		if _, ok := decodeBoth(t, payloads); ok {
			t.Fatalf("%s: expected a decode error, both decoders accepted", name)
		}
	}
}
