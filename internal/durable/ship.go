package durable

// Segment shipping: the cluster replication layer moves journal records
// between nodes inside the same CRC32C-framed segment format the storage
// engine writes to disk. A leader packages a partition's replication-log
// records as sealed segments (immutable, footer-checksummed — the catch-up
// chain) plus one unsealed tail (the current round's delta); a follower
// verifies every frame and the footer before applying a single record, so a
// corrupted ship is detected exactly like a corrupted disk. A ship is
// records only: each node's applied offset and each lease's epoch are the
// cluster's own bookkeeping and never cross the wire.

import "fmt"

// BuildSegment frames records as one segment file of the given kind for a
// partition. Sealed segments carry the footer and are immutable; unsealed
// segments are tail deltas a later ship supersedes.
func BuildSegment(kind SegmentKind, partition uint32, records [][]byte, sealed bool) []byte {
	b := newSegment(kind, partition)
	for _, rec := range records {
		b.append(rec)
	}
	return b.bytes(sealed)
}

// DecodeShippedSegment strictly decodes a shipped segment, additionally
// checking that it is of the expected kind and partition — a replication
// stream must not silently apply records that were built for a different
// partition's row space.
func DecodeShippedSegment(data []byte, kind SegmentKind, partition uint32) ([][]byte, error) {
	scan, err := scanSegment(data)
	if err != nil {
		return nil, err
	}
	if scan.Kind != kind {
		return nil, fmt.Errorf("%w: shipped kind %d, want %d", ErrBadHeader, scan.Kind, kind)
	}
	if scan.Partition != partition {
		return nil, fmt.Errorf("%w: shipped partition %d, want %d", ErrBadHeader, scan.Partition, partition)
	}
	return DecodeSegment(data)
}
