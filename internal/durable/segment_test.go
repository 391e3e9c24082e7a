package durable

import (
	"bytes"
	"errors"
	"testing"
)

// buildSegment frames payloads into one segment file for tests.
func buildSegment(t *testing.T, kind SegmentKind, partition uint32, sealed bool, payloads ...[]byte) []byte {
	t.Helper()
	b := newSegment(kind, partition)
	for _, p := range payloads {
		b.append(p)
	}
	return b.bytes(sealed)
}

func TestSegmentRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte(`{"t":"meta"}`), []byte("second"), {}, []byte("fourth")}
	for _, sealed := range []bool{false, true} {
		data := buildSegment(t, KindJournal, 7, sealed, payloads...)
		recs, err := DecodeSegment(data)
		if err != nil {
			t.Fatalf("sealed=%v: %v", sealed, err)
		}
		if len(recs) != len(payloads) {
			t.Fatalf("sealed=%v: %d records, want %d", sealed, len(recs), len(payloads))
		}
		for i := range recs {
			if !bytes.Equal(recs[i], payloads[i]) {
				t.Fatalf("sealed=%v: record %d = %q, want %q", sealed, i, recs[i], payloads[i])
			}
		}
		s, err := InspectSegment(data)
		if err != nil {
			t.Fatal(err)
		}
		if s.Kind != KindJournal || s.Partition != 7 || s.Sealed != sealed {
			t.Fatalf("scan kind=%d partition=%d sealed=%v", s.Kind, s.Partition, s.Sealed)
		}
		if sealed && s.FooterCount != uint64(len(payloads)) {
			t.Fatalf("footer count %d, want %d", s.FooterCount, len(payloads))
		}
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	base := func(sealed bool) []byte {
		return buildSegment(t, KindJournal, 0, sealed,
			[]byte("record-zero"), []byte("record-one"), []byte("record-two"))
	}
	cases := []struct {
		name    string
		data    []byte
		wantErr error
		// prefix is how many records must still decode before the error.
		prefix int
	}{
		{"empty file", nil, ErrBadHeader, 0},
		{"wrong magic", []byte("NOTSEG\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), ErrBadHeader, 0},
		{"bad version", func() []byte {
			d := base(false)
			d[6] = 99
			return d
		}(), ErrBadHeader, 0},
		{"unknown kind", func() []byte {
			d := base(false)
			d[7] = 200
			return d
		}(), ErrBadHeader, 0},
		{"mid-file bit flip", func() []byte {
			d := base(true)
			d[headerSize+frameHeader+2] ^= 0x40 // inside record 0's payload
			return d
		}(), ErrChecksum, 0},
		{"flip in sealed tail record", func() []byte {
			d := base(true)
			d[len(d)-footerSize-2] ^= 0x01 // last payload byte of record 2
			return d
		}(), ErrChecksum, 2},
		{"torn mid-payload", func() []byte {
			d := base(false)
			return d[:len(d)-4] // cut inside the final record
		}(), ErrTornTail, 2},
		{"torn mid-frame-header", func() []byte {
			d := base(false)
			last := len("record-two") + 3 // payload + part of the frame header
			return d[:len(d)-last]
		}(), ErrTornTail, 2},
		{"unsealed tail flip is torn", func() []byte {
			d := base(false)
			d[len(d)-1] ^= 0x10
			return d
		}(), ErrTornTail, 2},
		{"footer self-checksum", func() []byte {
			d := base(true)
			d[len(d)-1] ^= 0x01
			return d
		}(), ErrBadFooter, 3},
		{"footer count", func() []byte {
			d := base(true)
			d[len(d)-10] ^= 0x01 // inside the count field
			// Re-seal the self-CRC so only the count disagrees.
			foot := d[len(d)-footerSize:]
			c := Checksum(foot[:20])
			foot[20], foot[21], foot[22], foot[23] = byte(c>>24), byte(c>>16), byte(c>>8), byte(c)
			return d
		}(), ErrBadFooter, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, err := DecodeSegment(tc.data)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if len(recs) != tc.prefix {
				t.Fatalf("decoded prefix %d records, want %d", len(recs), tc.prefix)
			}
		})
	}
}

// FuzzSegmentDecode: the decoder must never panic, never over-read, and fail
// only with one of the typed errors, no matter what bytes it is fed. The seed
// corpus is valid segments plus one hand-corrupted variant per fault class.
func FuzzSegmentDecode(f *testing.F) {
	valid := func(sealed bool) []byte {
		b := newSegment(KindJournal, 3)
		b.append(appendRow(nil, RowRecord{Entity: "10.0.0.1", Events: 2}))
		b.append(appendEvent(nil, EventRecord{Seq: 0, Kind: "service_observed"}))
		b.append(appendEvent(nil, EventRecord{Seq: 1, Kind: "service_changed"}))
		return b.bytes(sealed)
	}
	f.Add(valid(true))
	f.Add(valid(false))
	f.Add(buildSingleRecord(KindCheckpoint, 0, []byte(`{"tick":12}`)))
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	// One corrupted seed per fault class.
	flip := valid(true)
	flip[headerSize+frameHeader] ^= 0x80 // ErrChecksum
	f.Add(flip)
	f.Add(valid(false)[:len(valid(false))-3]) // ErrTornTail
	badFoot := valid(true)
	badFoot[len(badFoot)-5] ^= 0x01 // ErrBadFooter
	f.Add(badFoot)
	badHdr := valid(true)
	badHdr[1] = 'X' // ErrBadHeader
	f.Add(badHdr)
	// A frame whose length field claims far more bytes than exist.
	lie := valid(false)
	lie[headerSize] = 0xFF
	f.Add(lie)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeSegment(data)
		if err != nil {
			for _, typed := range []error{ErrBadHeader, ErrChecksum, ErrTornTail, ErrBadFooter} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		// Decoded payload bytes can never exceed the input.
		var total int
		for _, r := range recs {
			total += len(r)
		}
		if total > len(data) {
			t.Fatalf("decoded %d payload bytes from %d input bytes", total, len(data))
		}
		if _, err := InspectSegment(data); err != nil {
			t.Fatalf("scan failed on decodable input: %v", err)
		}
	})
}
