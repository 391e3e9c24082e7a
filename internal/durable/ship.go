package durable

// Segment shipping: the cluster replication layer moves journal records
// between nodes inside the same CRC32C-framed segment format the storage
// engine writes to disk. A leader cuts the records a replica lacks from its
// partition's replication log as one sealed segment (footer-checksummed);
// the replica verifies every frame and the footer before applying a single
// record, so a corrupted ship is detected exactly like a corrupted disk. A
// ship is records only: each node's applied offset and each lease's epoch
// are the cluster's own bookkeeping and never cross the wire.

import (
	"encoding/binary"
	"fmt"
)

// BuildSegment frames records as one sealed segment of the given kind for a
// partition.
func BuildSegment(kind SegmentKind, partition uint32, records [][]byte) []byte {
	b := newSegment(kind, partition)
	for _, rec := range records {
		b.append(rec)
	}
	return b.bytes(true)
}

// DecodeShippedSegment strictly decodes a shipped segment, additionally
// checking that it is sealed, that its reserved header bytes are zero — so
// no byte of a ship goes unverified — and that it is of the expected kind and
// partition: a replication stream must not silently apply records that were
// built for a different partition's row space.
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
	if r := binary.BigEndian.Uint32(data[12:headerSize]); r != 0 {
		return nil, fmt.Errorf("%w: shipped reserved field %#x", ErrBadHeader, r)
	}
	if !scan.Sealed {
		return nil, fmt.Errorf("%w: shipped segment is not sealed", ErrBadFooter)
	}
	return DecodeSegment(data)
}
