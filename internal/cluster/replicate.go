package cluster

// Per-partition replication log. Each round the leader diffs the origin
// journal's partition dump against its per-entity high-water marks and
// appends the new events — plus, when the origin migrated SSD history to
// HDD, a control record carrying the authoritative tier split — to an
// append-only log of wire records. The log ships to replicas as CRC32C
// sealed segments (PR 5 framing, KindReplica) for catch-up plus a framed
// unsealed tail for the current round, so a rejoining node replays exactly
// the bytes a fresh disk recovery would.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"censysmap/internal/binrec"
	"censysmap/internal/durable"
	"censysmap/internal/journal"
)

// A wire record is one replication-log entry: a journal event replicated
// verbatim, or a round-control record carrying the origin's tier split — the
// round it closes and each migrated entity's target HDD length, entities
// strictly ascending.
//
//	ev  := 0x01 bytes entity | uvarint seq | i64be unix_ns | bytes kind | bytes payload
//	ctl := 0x02 uvarint round | uvarint n | (bytes entity | uvarint hdd_len){n}
//
// Read and written with internal/binrec, so each record has one encoding.
const (
	wireEv  byte = 1
	wireCtl byte = 2
)

// ErrBadWireRecord marks a replication-log entry that is not a well-formed
// ev or ctl record.
var ErrBadWireRecord = errors.New("cluster: malformed wire record")

func appendWireEv(dst []byte, ev journal.Event) []byte {
	dst = append(dst, wireEv)
	dst = binrec.AppendBytes(dst, ev.Entity)
	dst = binary.AppendUvarint(dst, ev.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(ev.Time.UnixNano()))
	dst = binrec.AppendBytes(dst, ev.Kind)
	return binrec.AppendBytes(dst, ev.Payload)
}

func appendWireCtl(dst []byte, round int, tiers map[string]int) []byte {
	dst = append(dst, wireCtl)
	dst = binary.AppendUvarint(dst, uint64(round))
	dst = binary.AppendUvarint(dst, uint64(len(tiers)))
	for _, e := range slices.Sorted(maps.Keys(tiers)) {
		dst = binrec.AppendBytes(dst, e)
		dst = binary.AppendUvarint(dst, uint64(tiers[e]))
	}
	return dst
}

// decodeWire strictly decodes one wire record: an event (tiers nil) or a
// control record's tier split. Times are restored as UTC instants, the
// simulation clock's representation.
func decodeWire(b []byte) (tag byte, ev journal.Event, tiers map[string]int, err error) {
	r := binrec.Reader{B: b, Bad: ErrBadWireRecord}
	switch tag = r.Byte("tag"); tag {
	case wireEv:
		ev.Entity = string(r.Bytes("entity"))
		ev.Seq = r.Uvarint("seq")
		ev.Time = time.Unix(0, r.Int64BE("ns")).UTC()
		ev.Kind = string(r.Bytes("kind"))
		ev.Payload = r.Bytes("payload")
	case wireCtl:
		r.Count("round")
		n := r.Count("tiers")
		tiers = make(map[string]int)
		prev := ""
		for i := 0; i < n && r.Err == nil; i++ {
			e := string(r.Bytes("tier entity"))
			if i > 0 && e <= prev {
				r.Fail("tier entities not strictly ascending")
			}
			tiers[e], prev = r.Count("hdd_len"), e
		}
	default:
		r.Fail(fmt.Sprintf("unknown tag %d", tag))
	}
	return tag, ev, tiers, r.End()
}

// plog is one partition's replication log.
type plog struct {
	records [][]byte // encoded wire records, append-only
	segs    [][]byte // sealed segments, sealEvery records each
	sealedN int      // records covered by segs
	// hw is the extractor's per-entity high-water mark: the next sequence
	// number not yet extracted (== the row's NextSeq at last extraction).
	hw map[string]uint64
	// hddLen tracks each row's HDD length at last extraction; growth means
	// the origin migrated and the round needs a control record.
	hddLen map[string]int
	// lastAdded is the record count appended by the most recent extraction,
	// used to tell a routine round delta from a rejoin catch-up.
	lastAdded int
}

func newPlog() *plog {
	return &plog{hw: make(map[string]uint64), hddLen: make(map[string]int)}
}

// extract appends the origin partition dump's new events (and tier-split
// control record, if the origin migrated) to the log. Dump rows are sorted
// by entity, so extraction order — and the log — is deterministic.
func (lg *plog) extract(d journal.PartitionDump, round int) (added int) {
	var tiers map[string]int
	appendEv := func(ev journal.Event) {
		lg.records = append(lg.records, appendWireEv(nil, ev))
		added++
	}
	for _, row := range d.Rows {
		from := lg.hw[row.Entity]
		// New events are a suffix of the row; they may already straddle
		// both tiers if the origin migrated them within the round.
		for _, ev := range row.HDD {
			if ev.Seq >= from {
				appendEv(ev)
			}
		}
		for _, ev := range row.SSD {
			if ev.Seq >= from {
				appendEv(ev)
			}
		}
		lg.hw[row.Entity] = row.NextSeq
		if len(row.HDD) != lg.hddLen[row.Entity] {
			if tiers == nil {
				tiers = make(map[string]int)
			}
			tiers[row.Entity] = len(row.HDD)
			lg.hddLen[row.Entity] = len(row.HDD)
		}
	}
	if tiers != nil {
		lg.records = append(lg.records, appendWireCtl(nil, round, tiers))
		added++
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
		tag, ev, tiers, err := decodeWire(rec)
		if err != nil {
			return from, fmt.Errorf("partition %d: %w", partition, err)
		}
		if tag == wireEv {
			err = store.ApplyReplicated(ev)
		} else {
			_, err = store.SyncTierSplit(partition, tiers)
		}
		if err != nil {
			return from, err
		}
		from++
	}
	return from, nil
}
