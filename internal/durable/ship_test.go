package durable

import (
	"bytes"
	"errors"
	"testing"
)

func TestBuildSegmentRoundTrip(t *testing.T) {
	records := [][]byte{[]byte(`{"t":"ev","seq":0}`), []byte(`{"t":"ev","seq":1}`), []byte(`{"t":"ctl"}`)}
	data := BuildSegment(KindReplica, 3, records)
	got, err := DecodeShippedSegment(data, KindReplica, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("%d records, want %d", len(got), len(records))
	}
	for i := range records {
		if !bytes.Equal(got[i], records[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], records[i])
		}
	}
	scan, err := InspectSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if !scan.Sealed || scan.Kind != KindReplica || scan.Partition != 3 {
		t.Fatalf("scan = %+v, want sealed kind=%d partition=3", scan, KindReplica)
	}
}

func TestDecodeShippedSegmentRejectsMismatch(t *testing.T) {
	data := BuildSegment(KindReplica, 2, [][]byte{[]byte("x")})
	if _, err := DecodeShippedSegment(data, KindReplica, 5); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("wrong partition accepted: %v", err)
	}
	if _, err := DecodeShippedSegment(data, KindJournal, 2); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("wrong kind accepted: %v", err)
	}
}

func TestDecodeShippedSegmentDetectsCorruption(t *testing.T) {
	data := BuildSegment(KindReplica, 0, [][]byte{[]byte("payload-a"), []byte("payload-b")})
	// Flip one payload bit: the follower must refuse the whole ship.
	corrupt := append([]byte(nil), data...)
	corrupt[headerSize+frameHeader+2] ^= 1
	if _, err := DecodeShippedSegment(corrupt, KindReplica, 0); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted ship decoded: %v", err)
	}
	// Truncate the sealed footer: also refused.
	if _, err := DecodeShippedSegment(data[:len(data)-4], KindReplica, 0); err == nil {
		t.Fatal("footer-truncated ship decoded cleanly")
	}
	// Cut the footer off whole: the frames still verify, but a ship is
	// always sealed.
	if _, err := DecodeShippedSegment(data[:len(data)-footerSize], KindReplica, 0); !errors.Is(err, ErrBadFooter) {
		t.Fatalf("unsealed ship decoded: %v", err)
	}
	// The reserved header bytes are covered by no checksum, so a ship
	// must carry them as zero.
	reserved := append([]byte(nil), data...)
	reserved[13] ^= 1
	if _, err := DecodeShippedSegment(reserved, KindReplica, 0); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("ship with a non-zero reserved field decoded: %v", err)
	}
}
