// Package simclock provides a deterministic simulated clock and event
// scheduler used to drive the continuous scanning pipeline at far faster than
// wall-clock speed. All pipeline components read time through the Clock
// interface so they run identically against real time (production) and
// simulated time (experiments, tests).
package simclock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the pipeline.
type Clock interface {
	Now() time.Time
}

// Real is a Clock backed by the system clock.
type Real struct{}

// Now returns the current wall-clock time.
func (Real) Now() time.Time { return time.Now() }

// Epoch is the default simulation start: a fixed instant so experiment output
// is reproducible. It matches the start of the paper's ground-truth scan
// (August 20, 2024).
var Epoch = time.Date(2024, time.August, 20, 0, 0, 0, 0, time.UTC)

// event is a scheduled callback.
type event struct {
	at   time.Time
	seq  uint64 // tie-break so same-instant events run in schedule order
	fn   func(now time.Time)
	heap int
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].heap = i
	q[j].heap = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*event)
	e.heap = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Sim is a simulated Clock with an event scheduler. The zero value is not
// usable; construct with New.
type Sim struct {
	mu  sync.Mutex
	now time.Time
	seq uint64
	q   eventQueue
}

// New returns a simulated clock starting at Epoch.
func New() *Sim { return NewAt(Epoch) }

// NewAt returns a simulated clock starting at the given instant.
func NewAt(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now returns the current simulated time.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Schedule arranges for fn to run when the simulation reaches now+d.
// Scheduling with d <= 0 runs fn at the current instant on the next Run/Advance.
func (s *Sim) Schedule(d time.Duration, fn func(now time.Time)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	heap.Push(&s.q, &event{at: s.now.Add(d), seq: s.seq, fn: fn})
}

// Every schedules fn to run every interval, starting one interval from now,
// until the returned stop function is called. fn itself may schedule further
// work.
func (s *Sim) Every(interval time.Duration, fn func(now time.Time)) (stop func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("simclock: non-positive interval %v", interval))
	}
	var mu sync.Mutex
	stopped := false
	var tick func(now time.Time)
	tick = func(now time.Time) {
		mu.Lock()
		dead := stopped
		mu.Unlock()
		if dead {
			return
		}
		fn(now)
		s.Schedule(interval, tick)
	}
	s.Schedule(interval, tick)
	return func() {
		mu.Lock()
		stopped = true
		mu.Unlock()
	}
}

// Advance moves simulated time forward by d, running every event due in the
// window in timestamp order. Events scheduled by running events are honoured
// if they fall within the window.
func (s *Sim) Advance(d time.Duration) {
	if d < 0 {
		panic("simclock: negative advance")
	}
	s.RunUntil(s.Now().Add(d))
}

// RunUntil runs all events with timestamps <= deadline, advancing simulated
// time to each event's instant, and finally sets the clock to deadline.
func (s *Sim) RunUntil(deadline time.Time) {
	for {
		s.mu.Lock()
		if len(s.q) == 0 || s.q[0].at.After(deadline) {
			if deadline.After(s.now) {
				s.now = deadline
			}
			s.mu.Unlock()
			return
		}
		e := heap.Pop(&s.q).(*event)
		if e.at.After(s.now) {
			s.now = e.at
		}
		s.mu.Unlock()
		e.fn(e.at)
	}
}
