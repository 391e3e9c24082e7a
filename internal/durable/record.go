package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"censysmap/internal/binrec"
	"censysmap/internal/journal"
)

// The journal record codec: the one place that knows what the payload of a
// KindJournal frame looks like (grammar in the package comment). The encoder
// is byte-deterministic and the decoder accepts exactly the encoder's output
// — minimal varints only, no trailing bytes — so decode∘encode is the
// identity in both directions. CRC-proven snapshot repair rests on that: a
// rebuilt record either hashes to the frame's stored CRC32C or is not the
// record that was written.

// ErrBadRecord marks a CRC-valid journal record whose bytes are not a
// well-formed row or event record.
var ErrBadRecord = errors.New("durable: malformed record")

// Record tags: the first byte of every journal record. Tag 1 was the
// partition counter record of format versions up to 3 and is now unknown.
const (
	TagRow   byte = 2
	TagEvent byte = 3
)

// Record is one decoded journal record. Tag says which of the two bodies
// is filled.
type Record struct {
	Tag byte
	Row RowRecord
	Ev  EventRecord
}

// RowRecord heads one row: its entity and how many event records follow.
type RowRecord struct {
	Entity string
	Events int
}

// EventRecord is one journaled event; NS is its time as UnixNano. After
// DecodeRecord, Payload aliases the decoded bytes.
type EventRecord struct {
	Seq     uint64
	NS      int64
	Kind    string
	Payload []byte
}

func eventRecord(ev journal.Event) EventRecord {
	return EventRecord{Seq: ev.Seq, NS: ev.Time.UnixNano(), Kind: ev.Kind, Payload: ev.Payload}
}

// Event returns the journal event the record stores for a row of entity.
// Times are restored as UTC instants, the simulation clock's representation.
func (e EventRecord) Event(entity string) journal.Event {
	return journal.Event{
		Entity: entity, Seq: e.Seq, Time: time.Unix(0, e.NS).UTC(), Kind: e.Kind, Payload: e.Payload,
	}
}

func appendRow(dst []byte, r RowRecord) []byte {
	dst = append(dst, TagRow)
	dst = binrec.AppendBytes(dst, r.Entity)
	return binary.AppendUvarint(dst, uint64(r.Events))
}

func appendEvent(dst []byte, e EventRecord) []byte {
	dst = slices.Grow(dst, 1+3*binary.MaxVarintLen64+8+len(e.Kind)+len(e.Payload))
	dst = append(dst, TagEvent)
	dst = binary.AppendUvarint(dst, e.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.NS))
	dst = binrec.AppendBytes(dst, e.Kind)
	return binrec.AppendBytes(dst, e.Payload)
}

// DecodeRecord strictly decodes one journal record. Any deviation from the
// encoder's output — unknown tag, truncated or padded varint, a length past
// the end, trailing bytes — is an error wrapping ErrBadRecord. It never
// panics or reads outside b (see FuzzRecordDecode).
func DecodeRecord(b []byte) (Record, error) {
	if len(b) == 0 {
		return Record{}, fmt.Errorf("%w: empty", ErrBadRecord)
	}
	rec := Record{Tag: b[0]}
	r := binrec.Reader{B: b[1:], Bad: ErrBadRecord}
	switch rec.Tag {
	case TagRow:
		rec.Row.Entity = string(r.Bytes("entity"))
		rec.Row.Events = r.Count("events")
	case TagEvent:
		rec.Ev.Seq = r.Uvarint("seq")
		rec.Ev.NS = r.Int64BE("ns")
		rec.Ev.Kind = internKind(r.Bytes("kind"))
		rec.Ev.Payload = r.Bytes("payload")
	default:
		return Record{}, fmt.Errorf("%w: unknown tag %d", ErrBadRecord, rec.Tag)
	}
	if err := r.End(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// internKind returns a shared string for the well-known event kinds (the
// write side's cqrs kinds plus the journal snapshot marker) so steady-state
// decode doesn't allocate a fresh kind string per event. Unknown kinds are
// copied as usual.
func internKind(b []byte) string {
	switch string(b) {
	case journal.SnapshotKind:
		return journal.SnapshotKind
	case "service_found":
		return "service_found"
	case "service_changed":
		return "service_changed"
	case "service_pending":
		return "service_pending"
	case "service_restored":
		return "service_restored"
	case "service_removed":
		return "service_removed"
	}
	return string(b)
}
