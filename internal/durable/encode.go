package durable

import (
	"fmt"

	"censysmap/internal/journal"
)

// A journal partition serializes to a flat record stream (record.go has the
// byte grammar):
//
//	record 0:  meta           partition access counters
//	then, per row in sorted entity order:
//	           row            row header (entity, counts, bookkeeping)
//	           ev × N         the row's events, HDD tier then SSD tier

// encodePartition flattens one partition dump into record payloads.
func encodePartition(d journal.PartitionDump) [][]byte {
	out := make([][]byte, 0, 1+2*len(d.Rows))
	out = append(out, appendMeta(nil, MetaRecord{
		SSDReads: d.SSDReads, HDDReads: d.HDDReads, Appends: d.Appends, Snaps: d.Snaps,
	}))
	for _, r := range d.Rows {
		out = append(out, appendRow(nil, RowRecord{
			Entity: r.Entity, LastSnap: r.LastSnap, NextSeq: r.NextSeq,
			HDD: len(r.HDD), Events: len(r.HDD) + len(r.SSD),
		}))
		for _, tier := range [][]journal.Event{r.HDD, r.SSD} {
			for _, ev := range tier {
				out = append(out, appendEvent(nil, eventRecord(ev)))
			}
		}
	}
	return out
}

// SnapshotRebuilder reconstructs a snapshot-event payload for an entity from
// the events preceding it — the write side's snapshot encoder replayed over
// the journaled history. Recovery uses it to repair corrupt snapshot
// records: the candidate is accepted only when its record hashes to the
// frame's stored CRC32C, which proves byte-exact reconstruction.
type SnapshotRebuilder func(entity string, prior []journal.Event) ([]byte, error)

// partitionDecoder is the streaming state machine that turns a record
// sequence back into a PartitionDump. It tracks enough row context to
// attempt CRC-proven snapshot repair at any corrupt record position.
type partitionDecoder struct {
	dump    journal.PartitionDump
	sawMeta bool

	// Current row being filled, with its declared shape.
	cur     *journal.RowDump
	curHDD  int
	curWant int
	curGot  int
}

// next consumes one CRC-verified record payload. Event payloads in the dump
// alias it.
func (pd *partitionDecoder) next(payload []byte) error {
	rec, err := DecodeRecord(payload)
	if err != nil {
		return err
	}
	switch rec.Tag {
	case TagMeta:
		if pd.sawMeta {
			return fmt.Errorf("unexpected meta record")
		}
		pd.sawMeta = true
		pd.dump.SSDReads = rec.Meta.SSDReads
		pd.dump.HDDReads = rec.Meta.HDDReads
		pd.dump.Appends = rec.Meta.Appends
		pd.dump.Snaps = rec.Meta.Snaps
	case TagRow:
		if !pd.sawMeta {
			return fmt.Errorf("row record out of place")
		}
		if pd.cur != nil && pd.curGot != pd.curWant {
			return fmt.Errorf("row %q: %d events, declared %d", pd.cur.Entity, pd.curGot, pd.curWant)
		}
		pd.flushRow()
		pd.cur = &journal.RowDump{
			Entity: rec.Row.Entity, LastSnap: rec.Row.LastSnap, NextSeq: rec.Row.NextSeq,
		}
		pd.curHDD, pd.curWant, pd.curGot = rec.Row.HDD, rec.Row.Events, 0
	case TagEvent:
		if pd.cur == nil {
			return fmt.Errorf("event record outside a row")
		}
		if pd.curGot >= pd.curWant {
			return fmt.Errorf("row %q: more events than declared %d", pd.cur.Entity, pd.curWant)
		}
		ev := rec.Ev.Event(pd.cur.Entity)
		if pd.curGot < pd.curHDD {
			pd.cur.HDD = append(pd.cur.HDD, ev)
		} else {
			pd.cur.SSD = append(pd.cur.SSD, ev)
		}
		pd.curGot++
	}
	return nil
}

func (pd *partitionDecoder) flushRow() {
	if pd.cur != nil {
		pd.dump.Rows = append(pd.dump.Rows, *pd.cur)
		pd.cur = nil
	}
}

// finish validates terminal state and returns the dump.
func (pd *partitionDecoder) finish() (journal.PartitionDump, error) {
	if !pd.sawMeta {
		return journal.PartitionDump{}, fmt.Errorf("missing meta record")
	}
	if pd.cur != nil && pd.curGot != pd.curWant {
		return journal.PartitionDump{}, fmt.Errorf("row %q: %d events, declared %d",
			pd.cur.Entity, pd.curGot, pd.curWant)
	}
	pd.flushRow()
	return pd.dump, nil
}

// tryRepair attempts CRC-proven reconstruction of a corrupt record under the
// decoder's current position: only a snapshot event mid-row can be rebuilt
// (from the row's prior events; its timestamp equals the triggering delta's,
// because the write side journals both at the same instant). The candidate
// record is returned only if it hashes to storedCRC — byte-exact proof, since
// the encoder is deterministic.
func (pd *partitionDecoder) tryRepair(storedCRC uint32, rebuild SnapshotRebuilder) ([]byte, bool) {
	if rebuild == nil || pd.cur == nil || pd.curGot == 0 || pd.curGot >= pd.curWant {
		return nil, false
	}
	prior := make([]journal.Event, 0, pd.curGot)
	prior = append(prior, pd.cur.HDD...)
	prior = append(prior, pd.cur.SSD...)
	prev := prior[len(prior)-1]
	payload, err := rebuild(pd.cur.Entity, prior)
	if err != nil {
		return nil, false
	}
	candidate := appendEvent(nil, eventRecord(journal.Event{
		Seq: prev.Seq + 1, Time: prev.Time, Kind: journal.SnapshotKind, Payload: payload,
	}))
	if Checksum(candidate) != storedCRC {
		return nil, false
	}
	return candidate, true
}
