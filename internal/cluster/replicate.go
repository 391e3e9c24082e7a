package cluster

// Per-partition replication log. Each round the leader diffs the origin
// journal's partition dump against its per-entity high-water marks and
// appends the new events to an append-only log of wire records. A ship is
// the log from the replica's applied offset on, cut as one CRC32C-sealed
// segment (durable's framing, KindReplica): a routine round and a rejoin
// catch-up are the same shape, and the replica verifies every frame and the
// footer before it applies a record. Events are all that ships: a row's
// SSD/HDD tier split is a function of its events, so a replica holding the
// origin's events holds its split.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"censysmap/internal/binrec"
	"censysmap/internal/durable"
	"censysmap/internal/journal"
)

// A wire record is one replication-log entry: a journal event replicated
// verbatim.
//
//	ev := 0x01 bytes entity | uvarint seq | i64be unix_ns | bytes kind | bytes payload
//
// Read and written with internal/binrec, so each record has one encoding.
// Tag 0x02, the tier-split control record of earlier logs, is unknown.
const wireEv byte = 1

// ErrBadWireRecord marks a replication-log entry that is not a well-formed
// ev record.
var ErrBadWireRecord = errors.New("cluster: malformed wire record")

func appendWireEv(dst []byte, ev journal.Event) []byte {
	dst = append(dst, wireEv)
	dst = binrec.AppendBytes(dst, ev.Entity)
	dst = binary.AppendUvarint(dst, ev.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(ev.Time.UnixNano()))
	dst = binrec.AppendBytes(dst, ev.Kind)
	return binrec.AppendBytes(dst, ev.Payload)
}

// decodeWire strictly decodes one wire record. Times are restored as UTC
// instants, the simulation clock's representation.
func decodeWire(b []byte) (ev journal.Event, err error) {
	r := binrec.Reader{B: b, Bad: ErrBadWireRecord}
	if tag := r.Byte("tag"); tag != wireEv {
		r.Fail(fmt.Sprintf("unknown tag %d", tag))
		return ev, r.Err
	}
	ev.Entity = string(r.Bytes("entity"))
	ev.Seq = r.Uvarint("seq")
	ev.Time = time.Unix(0, r.Int64BE("ns")).UTC()
	ev.Kind = string(r.Bytes("kind"))
	ev.Payload = r.Bytes("payload")
	return ev, r.End()
}

// plog is one partition's replication log.
type plog struct {
	records [][]byte // encoded wire records, append-only
	// hw is the extractor's per-entity high-water mark: the number of the
	// row's events already extracted (its next sequence number then).
	hw map[string]int
	// lastAdded is the record count appended by the most recent extraction,
	// used to tell a routine round delta from a rejoin catch-up.
	lastAdded int
}

func newPlog() *plog {
	return &plog{hw: make(map[string]int)}
}

// extract appends the origin partition dump's new events to the log. Dump
// rows are sorted by entity, so extraction order — and the log — is
// deterministic.
func (lg *plog) extract(d journal.PartitionDump) (added int) {
	for _, row := range d.Rows {
		for _, ev := range row.Events[lg.hw[row.Entity]:] {
			lg.records = append(lg.records, appendWireEv(nil, ev))
		}
		added += len(row.Events) - lg.hw[row.Entity]
		lg.hw[row.Entity] = len(row.Events)
	}
	lg.lastAdded = added
	return added
}

// ship cuts the records a replica of partition p at offset from lacks as one
// sealed segment. catchup marks a ship that replays more than the latest
// round — a rejoining or newly placed replica.
func (lg *plog) ship(p, from int) (seg []byte, catchup bool) {
	return durable.BuildSegment(durable.KindReplica, uint32(p), lg.records[from:]),
		len(lg.records)-from > lg.lastAdded
}

// applyShipment verifies a ship and applies it to a replica store at offset
// from, returning the new applied offset. Every frame, the footer and every
// wire record are checked before the first event is applied, so a corrupted
// ship is refused whole, leaving the replica at its prior offset.
func applyShipment(store *journal.Store, p, from int, seg []byte) (int, error) {
	recs, err := durable.DecodeShippedSegment(seg, durable.KindReplica, uint32(p))
	if err != nil {
		return from, fmt.Errorf("partition %d: %w", p, err)
	}
	evs := make([]journal.Event, len(recs))
	for i, rec := range recs {
		if evs[i], err = decodeWire(rec); err != nil {
			return from, fmt.Errorf("partition %d: %w", p, err)
		}
	}
	for _, ev := range evs {
		if err := store.ApplyReplicated(ev); err != nil {
			return from, err
		}
		from++
	}
	return from, nil
}
