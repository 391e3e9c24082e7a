package journal

import (
	"testing"
	"time"
)

func BenchmarkAppend(b *testing.B) {
	s := NewStore()
	payload := []byte(`{"service":{"port":80,"protocol":"HTTP"}}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Millisecond steps: hour-sized steps overflow time.Duration at
		// benchmark-scale iteration counts.
		at := base.Add(time.Duration(i) * time.Millisecond)
		if _, err := s.Append("10.0.0.1", at, "ev", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplayCurrentState(b *testing.B) {
	// Snapshot + 8 deltas: the common current-state read shape.
	s := NewStore()
	s.AppendSnapshot("e", ts(0), []byte(`{"ip":"10.0.0.1","services":{}}`))
	for i := 1; i <= 8; i++ {
		s.Append("e", ts(i), "ev", []byte(`{"service":{"port":80}}`))
	}
	at := ts(10)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, found := s.Replay("e", at); !found {
			b.Fatal("not found")
		}
	}
}

func BenchmarkReplayDeepHistory(b *testing.B) {
	// Historical read into the HDD tier.
	s := NewStore()
	for i := 0; i < 200; i++ {
		s.Append("e", ts(i), "ev", []byte("x"))
		if i%16 == 15 {
			s.AppendSnapshot("e", ts(i), []byte("SNAP"))
		}
	}
	at := ts(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Replay("e", at)
	}
}
