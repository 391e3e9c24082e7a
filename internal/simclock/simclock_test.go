package simclock

import (
	"testing"
	"time"
)

func TestNowStartsAtEpoch(t *testing.T) {
	s := New()
	if !s.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", s.Now(), Epoch)
	}
}

func TestNewAt(t *testing.T) {
	start := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
	s := NewAt(start)
	if !s.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", s.Now(), start)
	}
}

func TestAdvanceMovesClock(t *testing.T) {
	s := New()
	s.Advance(90 * time.Minute)
	want := Epoch.Add(90 * time.Minute)
	if !s.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", s.Now(), want)
	}
}

func TestScheduleRunsAtDeadline(t *testing.T) {
	s := New()
	var got time.Time
	s.Schedule(time.Hour, func(now time.Time) { got = now })
	s.Advance(30 * time.Minute)
	if !got.IsZero() {
		t.Fatal("event ran before its deadline")
	}
	s.Advance(30 * time.Minute)
	if !got.Equal(Epoch.Add(time.Hour)) {
		t.Fatalf("event ran at %v, want %v", got, Epoch.Add(time.Hour))
	}
}

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3*time.Hour, func(time.Time) { order = append(order, 3) })
	s.Schedule(1*time.Hour, func(time.Time) { order = append(order, 1) })
	s.Schedule(2*time.Hour, func(time.Time) { order = append(order, 2) })
	s.Advance(4 * time.Hour)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("run order = %v, want [1 2 3]", order)
	}
}

func TestSameInstantEventsRunInScheduleOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(time.Hour, func(time.Time) { order = append(order, i) })
	}
	s.Advance(time.Hour)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []time.Time
	s.Schedule(time.Hour, func(now time.Time) {
		times = append(times, now)
		s.Schedule(time.Hour, func(now time.Time) {
			times = append(times, now)
		})
	})
	s.Advance(3 * time.Hour)
	if len(times) != 2 {
		t.Fatalf("got %d events, want 2", len(times))
	}
	if !times[1].Equal(Epoch.Add(2 * time.Hour)) {
		t.Fatalf("nested event ran at %v, want %v", times[1], Epoch.Add(2*time.Hour))
	}
}

func TestNestedEventBeyondDeadlineDoesNotRun(t *testing.T) {
	s := New()
	ran := false
	s.Schedule(time.Hour, func(time.Time) {
		s.Schedule(2*time.Hour, func(time.Time) { ran = true })
	})
	s.Advance(2 * time.Hour)
	if ran {
		t.Fatal("event beyond deadline ran")
	}
	if len(s.q) != 1 {
		t.Fatalf("pending = %d, want 1", len(s.q))
	}
}

func TestEveryTicks(t *testing.T) {
	s := New()
	n := 0
	stop := s.Every(time.Hour, func(time.Time) { n++ })
	s.Advance(5 * time.Hour)
	if n != 5 {
		t.Fatalf("ticks = %d, want 5", n)
	}
	stop()
	s.Advance(5 * time.Hour)
	if n != 5 {
		t.Fatalf("ticks after stop = %d, want 5", n)
	}
}

func TestEveryPanicsOnNonPositiveInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Every(0, func(time.Time) {})
}

func TestEventSeesEventTime(t *testing.T) {
	s := New()
	var seen time.Time
	s.Schedule(30*time.Minute, func(now time.Time) { seen = s.Now() })
	s.Advance(2 * time.Hour)
	if !seen.Equal(Epoch.Add(30 * time.Minute)) {
		t.Fatalf("Now() inside event = %v, want event instant", seen)
	}
}

func TestFiredCountsEvents(t *testing.T) {
	s := New()
	fired := 0
	for i := 0; i < 7; i++ {
		s.Schedule(time.Minute*time.Duration(i+1), func(time.Time) { fired++ })
	}
	s.Advance(time.Hour)
	if fired != 7 || len(s.q) != 0 {
		t.Fatalf("fired %d, %d pending; want 7, 0", fired, len(s.q))
	}
}

func TestRealClock(t *testing.T) {
	before := time.Now()
	got := Real{}.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v outside [%v, %v]", got, before, after)
	}
}

func TestAdvancePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Advance(-time.Second)
}
