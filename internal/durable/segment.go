// Package durable is the on-disk storage engine behind crash recovery: it
// persists the event journals and the pipeline checkpoint as binary segment
// files with CRC32C-framed records, and recovers them with fault detection,
// torn-tail repair, CRC-proven snapshot reconstruction, and per-partition
// quarantine when a partition is beyond repair.
//
// The format is deliberately simple — the robustness lives in the recovery
// rules, not in format cleverness:
//
//	segment  := header record* footer?
//	header   := magic "CSEG1\x00" | version u8 | kind u8 | partition u32be | reserved u32be
//	record   := length u32be | crc32c(payload) u32be | payload
//	footer   := magic "CFTR1\x00" | version u8 | pad u8 | count u64be
//	          | crc32c(record crcs) u32be | crc32c(footer[0:20]) u32be
//
// A journal partition is one segment file per generation, rewritten whole by
// every save that touches it. It has no footer: its manifest entry (record
// count and the CRC32C of its record CRCs) seals it, and only its last
// record is covered against a torn write, by the doublewrite sidecar. The
// single-record files (manifest, checkpoint, sidecar) and replication ships
// carry the footer.
//
// Manifest, checkpoint and replica payloads are opaque to the frame layer. A
// journal segment's payloads are records of one binary grammar (record.go is
// the only code that reads or writes it):
//
//	record := row | ev
//	row    := 0x02 bytes entity | uvarint events
//	ev     := 0x03 uvarint seq | i64be unix_ns | bytes kind | bytes payload
//	bytes  := uvarint length | byte*length
//
// A partition is, per row (sorted by entity), a row record followed by its
// `events` ev records in order, the i-th with seq i. Nothing else is stored:
// the row's tier split, its next sequence number and the partition's
// counters are functions of the events. The event payload is the journal's bytes verbatim — for the host
// journal the binary delta of cqrs/payload.go, which durable never looks
// into; a change to either grammar bumps manifestVersion. Varints are
// minimal and nothing may trail a record, so each record has exactly one
// encoding — which is what lets recovery prove a rebuilt snapshot record
// byte-exact against the frame's CRC32C.
//
// Every decoder in this package is bounds-checked and returns typed errors —
// it never panics or over-reads on corrupt input (see FuzzSegmentDecode and
// FuzzRecordDecode).
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Typed decode errors. Recovery and fsck classify faults by these.
var (
	// ErrBadHeader marks a segment whose 16-byte header is missing or
	// malformed — the file is unusable.
	ErrBadHeader = errors.New("durable: bad segment header")
	// ErrChecksum marks a record whose payload does not hash to its stored
	// CRC32C — a bit flip or overwrite inside the file body.
	ErrChecksum = errors.New("durable: record checksum mismatch")
	// ErrTornTail marks an unsealed segment whose final record is
	// incomplete or corrupt — the signature of a torn append. The valid
	// prefix is still readable.
	ErrTornTail = errors.New("durable: torn tail")
	// ErrBadFooter marks a sealed segment whose footer is missing, fails
	// its own CRC, or disagrees with the records it summarizes.
	ErrBadFooter = errors.New("durable: bad segment footer")
)

// SegmentKind tags what a segment file stores.
type SegmentKind uint8

const (
	// KindJournal segments hold one journal partition's record stream.
	KindJournal SegmentKind = 1
	// KindCheckpoint segments hold one checkpoint blob as a single record.
	KindCheckpoint SegmentKind = 2
	// KindManifest segments hold the store manifest as a single record.
	KindManifest SegmentKind = 3
	// KindDWB segments are the doublewrite tail sidecar: a copy of a
	// partition file's final record, used to repair a torn write.
	KindDWB SegmentKind = 4
	// KindReplica segments carry one partition's replication-log records
	// between cluster nodes: each ship is one sealed segment holding the
	// records the receiving replica lacks (see internal/cluster and
	// BuildSegment in ship.go).
	KindReplica SegmentKind = 5
)

const (
	segMagic    = "CSEG1\x00"
	footMagic   = "CFTR1\x00"
	segVersion  = 1
	headerSize  = 16
	footerSize  = 24
	frameHeader = 8
	// maxRecordLen bounds a single record so a corrupt length field cannot
	// drive a multi-gigabyte allocation before the CRC check catches it.
	maxRecordLen = 1 << 28
)

// castagnoli is the CRC32C polynomial table shared by every frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the record checksum function (CRC32C), exported so tests and
// the fault injector can compute frame CRCs without reimplementing it.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// segmentBuilder accumulates framed records for one segment file.
type segmentBuilder struct {
	buf  []byte
	crcs []uint32
}

// newSegment starts a segment of the given kind for a partition.
func newSegment(kind SegmentKind, partition uint32) *segmentBuilder {
	b := &segmentBuilder{buf: make([]byte, 0, 4096)}
	b.buf = append(b.buf, segMagic...)
	b.buf = append(b.buf, segVersion, byte(kind))
	b.buf = binary.BigEndian.AppendUint32(b.buf, partition)
	b.buf = binary.BigEndian.AppendUint32(b.buf, 0)
	return b
}

// append frames one record.
func (b *segmentBuilder) append(payload []byte) {
	crc := Checksum(payload)
	b.buf = binary.BigEndian.AppendUint32(b.buf, uint32(len(payload)))
	b.buf = binary.BigEndian.AppendUint32(b.buf, crc)
	b.buf = append(b.buf, payload...)
	b.crcs = append(b.crcs, crc)
}

// segCRC folds the per-record CRCs into the footer's segment checksum.
func segCRC(crcs []uint32) uint32 {
	var raw []byte
	for _, c := range crcs {
		raw = binary.BigEndian.AppendUint32(raw, c)
	}
	return crc32.Checksum(raw, castagnoli)
}

// bytes finalizes the segment, appending the sealed footer when asked.
func (b *segmentBuilder) bytes(sealed bool) []byte {
	if !sealed {
		return b.buf
	}
	out := b.buf
	out = append(out, footMagic...)
	out = append(out, segVersion, 0)
	out = binary.BigEndian.AppendUint64(out, uint64(len(b.crcs)))
	out = binary.BigEndian.AppendUint32(out, segCRC(b.crcs))
	foot := out[len(out)-20:]
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(foot, castagnoli))
	return out
}

// Frame is one scanned record slot, valid or not.
type Frame struct {
	// Offset is the frame's start (the length field) within the file.
	Offset int64
	// PayloadOff is where the payload bytes begin.
	PayloadOff int64
	// Payload is the framed bytes (present even when the CRC fails, so
	// recovery can attempt reconstruction against StoredCRC).
	Payload []byte
	// StoredCRC is the CRC32C the frame claims.
	StoredCRC uint32
	// CRCOK reports whether the payload hashes to StoredCRC.
	CRCOK bool
}

// SegmentScan is the tolerant structural read of one segment file: header
// fields, every scannable frame with its checksum verdict, and the torn/seal
// state. Recovery and fsck share it; strict decoding layers on top.
type SegmentScan struct {
	Kind      SegmentKind
	Partition uint32
	// Sealed reports whether a structurally valid footer is present.
	Sealed bool
	// FooterCount / FooterSegCRC are the sealed footer's claims.
	FooterCount  uint64
	FooterSegCRC uint32
	// FooterErr is non-nil when footer bytes exist but fail validation.
	FooterErr error
	// Frames are the scanned records in file order.
	Frames []Frame
	// Torn is set when the byte stream ends inside a frame; TornOffset is
	// where the partial frame starts.
	Torn       bool
	TornOffset int64
}

// scanSegment structurally parses data. It fails only on a bad header;
// everything after that is reported through the scan so callers can classify
// and repair. It never reads out of bounds.
func scanSegment(data []byte) (*SegmentScan, error) {
	if len(data) < headerSize || string(data[:len(segMagic)]) != segMagic {
		return nil, ErrBadHeader
	}
	if data[6] != segVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadHeader, data[6])
	}
	s := &SegmentScan{
		Kind:      SegmentKind(data[7]),
		Partition: binary.BigEndian.Uint32(data[8:12]),
	}
	switch s.Kind {
	case KindJournal, KindCheckpoint, KindManifest, KindDWB, KindReplica:
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadHeader, data[7])
	}

	body := data[headerSize:]
	// Detect a trailing footer first: it delimits the record region.
	if n := len(body); n >= footerSize {
		foot := body[n-footerSize:]
		if string(foot[:len(footMagic)]) == footMagic {
			stored := binary.BigEndian.Uint32(foot[20:24])
			if crc32.Checksum(foot[:20], castagnoli) == stored && foot[6] == segVersion {
				s.Sealed = true
				s.FooterCount = binary.BigEndian.Uint64(foot[8:16])
				s.FooterSegCRC = binary.BigEndian.Uint32(foot[16:20])
				body = body[:n-footerSize]
			} else {
				s.FooterErr = fmt.Errorf("%w: footer self-checksum mismatch", ErrBadFooter)
				body = body[:n-footerSize]
			}
		}
	}

	off := int64(headerSize)
	for len(body) > 0 {
		if len(body) < frameHeader {
			s.Torn, s.TornOffset = true, off
			break
		}
		length := binary.BigEndian.Uint32(body[:4])
		crc := binary.BigEndian.Uint32(body[4:8])
		if length > maxRecordLen || int(length) > len(body)-frameHeader {
			s.Torn, s.TornOffset = true, off
			break
		}
		payload := body[frameHeader : frameHeader+int(length)]
		s.Frames = append(s.Frames, Frame{
			Offset:     off,
			PayloadOff: off + frameHeader,
			Payload:    payload,
			StoredCRC:  crc,
			CRCOK:      Checksum(payload) == crc,
		})
		off += frameHeader + int64(length)
		body = body[frameHeader+int(length):]
	}
	return s, nil
}

// DecodeSegment strictly decodes a segment file into its record payloads.
// Any fault yields a typed error (ErrBadHeader, ErrChecksum, ErrTornTail,
// ErrBadFooter) wrapped with the failing record index and byte offset; the
// successfully decoded prefix is returned alongside the error so callers can
// still see how far the file was good.
func DecodeSegment(data []byte) ([][]byte, error) {
	s, err := scanSegment(data)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for i, f := range s.Frames {
		if !f.CRCOK {
			// An invalid final record of an unsealed segment is a torn
			// append (the write stopped mid-record); anywhere else it is
			// body corruption.
			if !s.Sealed && !s.Torn && i == len(s.Frames)-1 {
				return out, fmt.Errorf("record %d at offset %d: %w", i, f.Offset, ErrTornTail)
			}
			return out, fmt.Errorf("record %d at offset %d: %w", i, f.Offset, ErrChecksum)
		}
		out = append(out, f.Payload)
	}
	if s.Torn {
		return out, fmt.Errorf("record %d at offset %d: %w", len(s.Frames), s.TornOffset, ErrTornTail)
	}
	if s.FooterErr != nil {
		return out, s.FooterErr
	}
	if s.Sealed {
		if s.FooterCount != uint64(len(s.Frames)) {
			return out, fmt.Errorf("%w: footer count %d != %d records",
				ErrBadFooter, s.FooterCount, len(s.Frames))
		}
		crcs := make([]uint32, len(s.Frames))
		for i, f := range s.Frames {
			crcs[i] = f.StoredCRC
		}
		if segCRC(crcs) != s.FooterSegCRC {
			return out, fmt.Errorf("%w: footer segment checksum mismatch", ErrBadFooter)
		}
	}
	return out, nil
}

// InspectSegment exposes the tolerant structural scan for the fault injector
// and fsck: frame offsets, checksum verdicts, and seal state, without
// decoding payloads.
func InspectSegment(data []byte) (*SegmentScan, error) { return scanSegment(data) }

// buildSingleRecord is the common shape for manifest / checkpoint / dwb
// files: one framed record in one segment.
func buildSingleRecord(kind SegmentKind, partition uint32, payload []byte) []byte {
	b := newSegment(kind, partition)
	b.append(payload)
	return b.bytes(true)
}

// decodeSingleRecord reads a single-record sealed segment of the expected
// kind.
func decodeSingleRecord(data []byte, want SegmentKind) ([]byte, error) {
	s, err := scanSegment(data)
	if err != nil {
		return nil, err
	}
	if s.Kind != want {
		return nil, fmt.Errorf("%w: kind %d, want %d", ErrBadHeader, s.Kind, want)
	}
	recs, err := DecodeSegment(data)
	if err != nil {
		return nil, err
	}
	if len(recs) != 1 {
		return nil, fmt.Errorf("%w: %d records, want 1", ErrBadFooter, len(recs))
	}
	return recs[0], nil
}
