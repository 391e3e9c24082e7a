//go:build !race

package cqrs

import (
	"testing"
	"time"

	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

// The !race tag: the race detector instruments allocations, which breaks
// testing.AllocsPerRun's exact counts. Plain `make test` enforces these.

func allocProbeService() *entity.Service {
	since := time.Date(2024, 8, 22, 3, 0, 0, 0, time.UTC)
	return &entity.Service{
		Port: 443, Transport: entity.TCP, Protocol: "HTTP", TLS: true,
		CertSHA256: "ab12", Banner: "HTTP/1.1 200 OK\r\nServer: nginx",
		Attributes: map[string]string{"http.title": "Welcome", "http.status": "200"},
		Method:     entity.DetectPriorityScan, Verified: true,
		FirstSeen:           time.Date(2024, 8, 20, 1, 0, 0, 0, time.UTC),
		LastSeen:            time.Date(2024, 8, 21, 1, 0, 0, 0, time.UTC),
		PendingRemovalSince: &since, SourcePoP: "chi",
	}
}

// TestEncodeZeroAlloc locks in zero steady-state allocations for delta
// encoding into a reused buffer.
func TestEncodeZeroAlloc(t *testing.T) {
	svc := allocProbeService()
	key := entity.ServiceKey{Port: 443, Transport: entity.TCP}
	since := time.Date(2024, 8, 22, 3, 0, 0, 0, time.UTC)
	h := &entity.Host{LastUpdated: since}
	h.SetService(svc)
	buf := make([]byte, 0, 4096)

	if avg := testing.AllocsPerRun(200, func() {
		buf = AppendServiceEvent(buf[:0], svc)
	}); avg != 0 {
		t.Fatalf("AppendServiceEvent: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		buf = AppendKeyEvent(buf[:0], key, since)
	}); avg != 0 {
		t.Fatalf("AppendKeyEvent: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		buf = AppendHostSnapshot(buf[:0], h)
	}); avg != 0 {
		t.Fatalf("AppendHostSnapshot: %v allocs/op, want 0", avg)
	}

	// The write path's arena-interning encoder allocates one chunk per
	// ~64KiB of journaled payloads; amortized per event that must stay
	// well below one.
	var enc eventEncoder
	if avg := testing.AllocsPerRun(500, func() {
		enc.serviceEvent(svc)
	}); avg > 0.05 {
		t.Fatalf("eventEncoder.serviceEvent: %v allocs/op, want amortized ~0", avg)
	}
}

// TestDecodeZeroAlloc locks in zero steady-state allocations for replaying
// an unchanged service delta onto a warm host record, and for rendering
// history entries — a delta and a snapshot — into a reused buffer.
func TestDecodeZeroAlloc(t *testing.T) {
	svc := allocProbeService()
	evSvc := journal.Event{
		Kind:    KindServiceChanged,
		Time:    time.Date(2024, 8, 21, 2, 0, 0, 0, time.UTC),
		Payload: AppendServiceEvent(nil, svc),
	}
	evPend := journal.Event{
		Kind: KindServicePending,
		Time: time.Date(2024, 8, 22, 3, 0, 0, 0, time.UTC),
		Payload: AppendKeyEvent(nil, entity.ServiceKey{Port: 443, Transport: entity.TCP},
			time.Date(2024, 8, 22, 3, 0, 0, 0, time.UTC)),
	}
	h := &entity.Host{}
	if err := ApplyEvent(h, evSvc); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := ApplyEvent(h, evSvc); err != nil {
			t.Fatal(err)
		}
		if err := ApplyEvent(h, evPend); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("ApplyEvent steady state: %v allocs/op, want 0", avg)
	}

	evSnap := journal.Event{Kind: journal.SnapshotKind, Time: evSvc.Time, Payload: EncodeHostSnapshot(h)}
	buf := make([]byte, 0, 4096)
	if avg := testing.AllocsPerRun(200, func() {
		for _, ev := range []journal.Event{evSvc, evPend, evSnap} {
			var err error
			if buf, err = AppendEventJSON(buf[:0], ev); err != nil {
				t.Fatal(err)
			}
		}
	}); avg != 0 {
		t.Fatalf("AppendEventJSON: %v allocs/op, want 0", avg)
	}
}
