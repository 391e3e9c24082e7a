package journal

// Replication entry points: a replica journal mirrors an origin journal by
// replaying its events verbatim. Unlike Append — which assigns sequence
// numbers — ApplyReplicated takes the origin's sequence number and enforces
// per-row continuity, so a dropped, duplicated, or reordered ship is an error
// rather than a silently forked row.

import (
	"errors"
	"fmt"
)

// ErrReplicaGap is returned when a replicated event's sequence number is not
// the row's next expected one — the replication stream lost, duplicated, or
// reordered an event.
var ErrReplicaGap = errors.New("journal: replicated event out of sequence")

// ApplyReplicated appends one origin-journal event to the replica, keeping
// the origin's sequence number. The event must be the row's next in sequence
// and not travel back in time; the row and the partition's counters then
// change exactly as the origin's did for the same event. A refused event
// leaves the replica untouched — no row is created for it.
func (s *Store) ApplyReplicated(ev Event) error {
	p := s.part(ev.Entity)
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.rows[ev.Entity]
	seq, backwards := r.next(ev.Time)
	if ev.Seq != seq {
		return fmt.Errorf("%w: entity %s seq %d, want %d", ErrReplicaGap, ev.Entity, ev.Seq, seq)
	}
	if backwards {
		return ErrOutOfOrder
	}
	p.push(r, ev)
	return nil
}
