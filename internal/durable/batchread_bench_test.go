package durable

import (
	"fmt"
	"testing"
	"time"

	"censysmap/internal/journal"
)

// benchSaveDir saves a store with many segments and returns its directory.
func benchSaveDir(b *testing.B, entities, eventsEach, recsPerSeg int) string {
	b.Helper()
	dir := b.TempDir()
	s := journal.NewPartitioned(8)
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	payload := []byte(`{"service":{"port":443,"transport":"tcp","protocol":"HTTP","tls":true,"banner":"HTTP/1.1 200 OK\r\nServer: nginx/1.24.0","attributes":{"http.server":"nginx/1.24.0","http.title":"Admin Console"},"method":"refresh","verified":true,"first_seen":"2026-03-01T08:30:00Z","last_seen":"2026-03-02T10:30:00Z","source_pop":"us-east-1"}}`)
	for i := 0; i < entities; i++ {
		id := fmt.Sprintf("bench-host-%04d", i)
		for e := 0; e < eventsEach; e++ {
			if _, err := s.Append(id, base.Add(time.Duration(e)*time.Minute), "service_changed", payload); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.AppendSnapshot(id, base.Add(time.Duration(eventsEach)*time.Minute), []byte(`{"state":"up"}`)); err != nil {
			b.Fatal(err)
		}
	}
	stores := []NamedStore{{Name: "journal", Store: s}}
	if err := Save(dir, stores, []byte(`{}`), SaveOptions{RecordsPerSegment: recsPerSeg}); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkSegmentLoad times a full recovery of a many-segment store.
func BenchmarkSegmentLoad(b *testing.B) {
	dir := benchSaveDir(b, 512, 4, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Load(dir, LoadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Report.Clean() {
			b.Fatal("findings")
		}
	}
}
