package durable

import (
	"fmt"

	"censysmap/internal/journal"
)

// A journal partition serializes to a flat record stream (record.go has the
// byte grammar): per row in sorted entity order, a row record (entity and
// event count) followed by the row's events, event i carrying seq i. An
// empty partition is an empty stream.

// encodePartition flattens one partition dump into record payloads.
func encodePartition(d journal.PartitionDump) [][]byte {
	out := make([][]byte, 0, 2*len(d.Rows))
	for _, r := range d.Rows {
		out = append(out, appendRow(nil, RowRecord{Entity: r.Entity, Events: len(r.Events)}))
		for _, ev := range r.Events {
			out = append(out, appendEvent(nil, eventRecord(ev)))
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
	dump journal.PartitionDump

	// Current row being filled, with its declared event count.
	cur     *journal.RowDump
	curWant int
}

// next consumes one CRC-verified record payload. Event payloads in the dump
// alias it.
func (pd *partitionDecoder) next(payload []byte) error {
	rec, err := DecodeRecord(payload)
	if err != nil {
		return err
	}
	switch rec.Tag {
	case TagRow:
		if err := pd.flushRow(); err != nil {
			return err
		}
		pd.cur = &journal.RowDump{Entity: rec.Row.Entity}
		pd.curWant = rec.Row.Events
	case TagEvent:
		if pd.cur == nil {
			return fmt.Errorf("event record outside a row")
		}
		got := len(pd.cur.Events)
		if got >= pd.curWant {
			return fmt.Errorf("row %q: more events than declared %d", pd.cur.Entity, pd.curWant)
		}
		if rec.Ev.Seq != uint64(got) {
			return fmt.Errorf("row %q: event %d has seq %d", pd.cur.Entity, got, rec.Ev.Seq)
		}
		pd.cur.Events = append(pd.cur.Events, rec.Ev.Event(pd.cur.Entity))
	}
	return nil
}

// flushRow closes the current row, which must hold every event it declared.
func (pd *partitionDecoder) flushRow() error {
	if pd.cur == nil {
		return nil
	}
	if got := len(pd.cur.Events); got != pd.curWant {
		return fmt.Errorf("row %q: %d events, declared %d", pd.cur.Entity, got, pd.curWant)
	}
	pd.dump.Rows = append(pd.dump.Rows, *pd.cur)
	pd.cur = nil
	return nil
}

// finish validates terminal state and returns the dump.
func (pd *partitionDecoder) finish() (journal.PartitionDump, error) {
	if err := pd.flushRow(); err != nil {
		return journal.PartitionDump{}, err
	}
	return pd.dump, nil
}

// tryRepair attempts CRC-proven reconstruction of a corrupt record under the
// decoder's current position: only a snapshot event mid-row can be rebuilt
// (from the row's prior events; its timestamp equals the triggering delta's,
// because the write side journals both at the same instant). The candidate
// record is returned only if it hashes to storedCRC — byte-exact proof, since
// the encoder is deterministic.
func (pd *partitionDecoder) tryRepair(storedCRC uint32, rebuild SnapshotRebuilder) ([]byte, bool) {
	if rebuild == nil || pd.cur == nil {
		return nil, false
	}
	prior := pd.cur.Events
	if len(prior) == 0 || len(prior) >= pd.curWant {
		return nil, false
	}
	payload, err := rebuild(pd.cur.Entity, prior)
	if err != nil {
		return nil, false
	}
	candidate := appendEvent(nil, eventRecord(journal.Event{
		Seq: uint64(len(prior)), Time: prior[len(prior)-1].Time, Kind: journal.SnapshotKind, Payload: payload,
	}))
	if Checksum(candidate) != storedCRC {
		return nil, false
	}
	return candidate, true
}
