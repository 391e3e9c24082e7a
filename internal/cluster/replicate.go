package cluster

// Per-partition replication log. Each round the leader diffs the origin
// journal's partition dump against its per-entity high-water marks and
// appends the new events to an append-only log of wire records. The log
// ships to replicas as CRC32C sealed segments (durable's framing, KindReplica)
// for catch-up plus a framed unsealed tail for the current round, so a
// rejoining node replays exactly the bytes a fresh disk recovery would.
// Events are all that ships: a row's SSD/HDD tier split is a function of
// its events, so a replica holding the origin's events holds its split.

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
	segs    [][]byte // sealed segments, sealEvery records each
	sealedN int      // records covered by segs
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

// seal packs full sealEvery-record chunks into sealed KindReplica segments.
// Returns segments sealed this call.
func (lg *plog) seal(sealEvery int, partition uint32) (sealed int) {
	for len(lg.records)-lg.sealedN >= sealEvery {
		chunk := lg.records[lg.sealedN : lg.sealedN+sealEvery]
		lg.segs = append(lg.segs, durable.BuildSegment(durable.KindReplica, partition, chunk, true))
		lg.sealedN += sealEvery
		sealed++
	}
	return sealed
}

// shipment is one Ship RPC's payload: sealed segments from the aligned
// start offset, plus the unsealed tail records.
type shipment struct {
	// Start is the log offset of the first record in Segments; the replica
	// skips (its applied offset − Start) records. Segment boundaries are
	// fixed, so a mid-segment replica re-receives the whole segment.
	Start    int
	Segments [][]byte
	Tail     [][]byte
	// Catchup marks a ship that replays more than the latest round — a
	// rejoining or newly placed replica.
	Catchup bool
}

// ship builds the payload bringing a replica at offset `from` up to date.
func (lg *plog) ship(from, sealEvery int) shipment {
	if from >= lg.sealedN {
		return shipment{Start: from, Tail: lg.records[from:],
			Catchup: len(lg.records)-from > lg.lastAdded}
	}
	segIdx := from / sealEvery
	return shipment{
		Start:    segIdx * sealEvery,
		Segments: lg.segs[segIdx:],
		Tail:     lg.records[lg.sealedN:],
		Catchup:  true,
	}
}

// size reports the shipment's payload bytes, for RPC accounting.
func (sh shipment) size() int {
	n := 0
	for _, s := range sh.Segments {
		n += len(s)
	}
	for _, r := range sh.Tail {
		n += len(r)
	}
	return n
}

// applyShipment verifies and applies a shipment to a replica store,
// returning the new applied offset. Sealed segments re-verify their CRC32C
// framing on every apply — a corrupted ship is refused whole, leaving the
// replica at its prior offset.
func applyShipment(store *journal.Store, partition int, from int, sh shipment) (int, error) {
	recs := make([][]byte, 0, len(sh.Tail))
	for _, blob := range sh.Segments {
		rs, err := durable.DecodeShippedSegment(blob, durable.KindReplica, uint32(partition))
		if err != nil {
			return from, fmt.Errorf("partition %d: %w", partition, err)
		}
		recs = append(recs, rs...)
	}
	recs = append(recs, sh.Tail...)
	skip := from - sh.Start
	if skip < 0 || skip > len(recs) {
		return from, fmt.Errorf("partition %d: ship start %d does not cover offset %d",
			partition, sh.Start, from)
	}
	for _, rec := range recs[skip:] {
		ev, err := decodeWire(rec)
		if err != nil {
			return from, fmt.Errorf("partition %d: %w", partition, err)
		}
		if err := store.ApplyReplicated(ev); err != nil {
			return from, err
		}
		from++
	}
	return from, nil
}
