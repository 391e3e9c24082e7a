// Package journal implements the backend event journal of the CQRS pipeline
// (paper §5.2): an append-only log of delta-encoded events per entity, keyed
// by (EntityID, SequenceNumber), with periodic state snapshots. A row's
// history before its newest snapshot is its HDD tier; the snapshot and every
// event after it are its SSD tier.
//
// The design mirrors the paper's Bigtable layout:
//
//   - journal events are deltas, not full records, because most refresh
//     scans change nothing or very little;
//   - reconstructing an entity replays events since the latest snapshot, so
//     snapshot cadence bounds worst-case read amplification;
//   - the current state is always reachable from SSD, while the bulk of
//     history lives on HDD (500 TB/year at Censys' scale).
//
// The tier split is not stored: each row is one time-ordered event slice
// plus the index of its newest snapshot, and the split is that index —
// the paper's policy applied at every append rather than by a periodic
// migration job.
//
// The store is partitioned: rows are striped over N independently locked
// partitions by a stable hash of the entity ID, so concurrent appends for
// different entities do not serialize on one mutex. NewStore gives a single
// partition (the original serial layout); NewPartitioned stripes wider.
package journal

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"censysmap/internal/shard"
)

// Event is one journal row.
type Event struct {
	// Entity is the row key, e.g. an IP address or certificate fingerprint.
	Entity string
	// Seq is the entity's monotonic sequence number, assigned by Append.
	Seq uint64
	// Time is the event's logical timestamp. Appends for one entity must be
	// time-ordered.
	Time time.Time
	// Kind tags the event type (e.g. "service_found", "snapshot").
	Kind string
	// Payload is the serialized delta (or full state for snapshots).
	Payload []byte
}

// SnapshotKind marks full-state snapshot events.
const SnapshotKind = "snapshot"

// ErrOutOfOrder is returned when an append is timestamped before the
// entity's newest event.
var ErrOutOfOrder = errors.New("journal: append out of time order")

// Stats describes storage counters, used by the tiering and delta-encoding
// ablations. For a partitioned store the counters are aggregated across
// partitions.
type Stats struct {
	Entities     int
	SSDEvents    int
	HDDEvents    int
	SSDBytes     int64
	HDDBytes     int64
	Appends      uint64
	Snapshots    uint64
	MaxReplayLen int
}

// row is one entity's history. events[i].Seq == i: Append assigns sequence
// numbers that way and ApplyReplicated enforces it.
type row struct {
	events []Event // time-ordered
	// lastSnap is the index of the newest snapshot, or -1. The events
	// before it are the HDD tier.
	lastSnap int
}

// partition is one independently locked stripe of the journal.
type partition struct {
	mu   sync.RWMutex
	rows map[string]*row

	appends, snaps uint64

	// gen counts content mutations (appends, restores, replicated applies)
	// — reads do not bump it. Incremental checkpointing uses it to skip
	// partitions whose dump cannot have changed since the last save, and
	// the Entities cache uses the cross-partition sum as its invalidation
	// stamp. Written under mu; read lock-free via the atomic.
	gen atomic.Uint64
}

// Store is an in-memory two-tier event journal, striped over one or more
// partitions. It is safe for concurrent use; appends for entities in
// different partitions proceed in parallel.
type Store struct {
	parts []*partition

	// Cached sorted entity list, stamped with the generation sum it was
	// built against (see Entities).
	entMu    sync.Mutex
	entGen   uint64
	entValid bool
	entCache []string

	// restores counts RestorePartition calls (see RestoreEpoch).
	restores atomic.Uint64
}

// NewStore creates an empty single-partition journal.
func NewStore() *Store { return NewPartitioned(1) }

// NewPartitioned creates an empty journal striped over n partitions
// (n <= 1 gives one partition).
func NewPartitioned(n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{parts: make([]*partition, n)}
	for i := range s.parts {
		s.parts[i] = &partition{rows: make(map[string]*row)}
	}
	return s
}

// Partitions reports the stripe count.
func (s *Store) Partitions() int { return len(s.parts) }

func (s *Store) part(entity string) *partition {
	return s.parts[shard.Of(entity, len(s.parts))]
}

// push appends ev as entity's next event, creating the row if this is its
// first. The caller holds p.mu and has checked ev.Seq.
func (p *partition) push(r *row, ev Event) {
	if r == nil {
		r = &row{lastSnap: -1}
		p.rows[ev.Entity] = r
	}
	r.events = append(r.events, ev)
	if ev.Kind == SnapshotKind {
		r.lastSnap = len(r.events) - 1
		p.snaps++
	}
	p.appends++
	p.gen.Add(1)
}

// next reports the sequence number r's next event takes (0 for a missing
// row) and whether an event at t would travel back in time.
func (r *row) next(t time.Time) (seq uint64, backwards bool) {
	if r == nil {
		return 0, false
	}
	n := len(r.events)
	return uint64(n), n > 0 && t.Before(r.events[n-1].Time)
}

// Append adds a delta event for entity and returns its sequence number.
func (s *Store) Append(entity string, t time.Time, kind string, payload []byte) (uint64, error) {
	p := s.part(entity)
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.rows[entity]
	seq, backwards := r.next(t)
	if backwards {
		return 0, ErrOutOfOrder
	}
	p.push(r, Event{Entity: entity, Seq: seq, Time: t, Kind: kind, Payload: payload})
	return seq, nil
}

// AppendSnapshot records a full-state snapshot for entity.
func (s *Store) AppendSnapshot(entity string, t time.Time, payload []byte) (uint64, error) {
	return s.Append(entity, t, SnapshotKind, payload)
}

// EventsSinceSnapshot reports how many delta events follow the entity's
// latest snapshot (the replay length for a current-state read).
func (s *Store) EventsSinceSnapshot(entity string) int {
	p := s.part(entity)
	p.mu.RLock()
	defer p.mu.RUnlock()
	r, ok := p.rows[entity]
	if !ok {
		return 0
	}
	return len(r.events) - r.lastSnap - 1
}

// Len reports the number of events in entity's row — the sequence number
// its next event takes; 0 when it has none.
func (s *Store) Len(entity string) int {
	p := s.part(entity)
	p.mu.RLock()
	defer p.mu.RUnlock()
	if r, ok := p.rows[entity]; ok {
		return len(r.events)
	}
	return 0
}

// Replay returns the newest snapshot at or before asOf (zero Event, ok=false
// if none) and every delta event after that snapshot up to and including
// asOf, in order. Callers apply the deltas to the snapshot to reconstruct
// entity state at asOf — the paper's read-side lookup path. deltas aliases
// the row and is capped at its end, so callers must not modify its elements;
// appending to it copies.
func (s *Store) Replay(entity string, asOf time.Time) (snapshot Event, deltas []Event, found bool) {
	p := s.part(entity)
	p.mu.RLock()
	defer p.mu.RUnlock()
	r, ok := p.rows[entity]
	if !ok {
		return Event{}, nil, false
	}
	all := r.events
	// Find the last event with Time <= asOf.
	hi := sort.Search(len(all), func(i int) bool { return all[i].Time.After(asOf) })
	if hi == 0 {
		return Event{}, nil, false
	}
	// The newest snapshot in the window: the row's newest if it is inside,
	// else the last one before hi.
	snap := r.lastSnap
	if snap >= hi {
		snap = -1
		for i := hi - 1; i >= 0; i-- {
			if all[i].Kind == SnapshotKind {
				snap = i
				break
			}
		}
	}
	deltas = all[snap+1 : hi : hi]
	if snap < 0 {
		// No snapshot: replay everything from genesis.
		return Event{}, deltas, true
	}
	return all[snap], deltas, true
}

// Events returns every event for entity in order, for diagnostics and
// history queries.
func (s *Store) Events(entity string) []Event {
	p := s.part(entity)
	p.mu.RLock()
	defer p.mu.RUnlock()
	r, ok := p.rows[entity]
	if !ok {
		return nil
	}
	return append([]Event(nil), r.events...)
}

// Entities returns all row keys across partitions, sorted. The result is
// cached and shared between calls until some partition's content generation
// moves, so callers must treat it as read-only; replay drivers calling this
// once per reconstructed entity no longer pay an O(n log n) sort each time.
func (s *Store) Entities() []string {
	s.entMu.Lock()
	defer s.entMu.Unlock()
	// Snapshot the generation sum before reading rows: a concurrent append
	// can then only make the cached slice a superset of the stamped
	// generation's rows, and the next call rebuilds (gens are monotonic).
	var sum uint64
	for _, p := range s.parts {
		sum += p.gen.Load()
	}
	if s.entValid && sum == s.entGen {
		return s.entCache
	}
	out := make([]string, 0, len(s.entCache))
	for _, p := range s.parts {
		p.mu.RLock()
		for k := range p.rows {
			out = append(out, k)
		}
		p.mu.RUnlock()
	}
	sort.Strings(out)
	s.entCache, s.entGen, s.entValid = out, sum, true
	return out
}

// PartitionGen reports partition i's content generation: it moves exactly
// when the partition's dumpable content may have changed (appends,
// snapshots, restores, replicated applies) and never on reads. Incremental saves compare it against the generation recorded in
// the last manifest.
func (s *Store) PartitionGen(i int) uint64 {
	return s.parts[i].gen.Load()
}

// RowDump is one entity's serialized journal row: its events in order. The
// tier split and sequence bookkeeping are functions of the events and are
// recomputed on restore.
type RowDump struct {
	Entity string
	Events []Event
}

// PartitionDump is the full serialized state of one partition: every row in
// sorted entity order. It is the unit the durable storage engine persists
// and restores.
type PartitionDump struct {
	Rows []RowDump
}

// DumpPartition serializes partition i. Rows are sorted by entity ID so two
// dumps of identical stores are identical.
func (s *Store) DumpPartition(i int) PartitionDump {
	p := s.parts[i]
	p.mu.RLock()
	defer p.mu.RUnlock()
	var d PartitionDump
	ids := make([]string, 0, len(p.rows))
	for id := range p.rows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		d.Rows = append(d.Rows, RowDump{
			Entity: id,
			Events: append([]Event(nil), p.rows[id].events...),
		})
	}
	return d
}

// RestoreEpoch counts RestorePartition calls. Between restores a row only
// grows, so its first n events never change; a restore may replace a row
// with different events, so a reader that keeps state derived from a row's
// first n events also keeps the epoch it derived it in, and drops it when the
// epoch moves.
func (s *Store) RestoreEpoch() uint64 { return s.restores.Load() }

// ErrWrongPartition is returned by RestorePartition when a dumped row does
// not hash to the partition being restored — the corruption-detection
// backstop for rows that moved across partition files.
var ErrWrongPartition = errors.New("journal: restored row routed to a different partition")

// RestorePartition replaces partition i's contents with a dump, recomputing
// each row's newest snapshot and the partition's append and snapshot
// counters from the events. Every row must hash to partition i under the
// store's current stripe count.
func (s *Store) RestorePartition(i int, d PartitionDump) error {
	p := s.parts[i]
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen.Add(1)
	s.restores.Add(1)
	p.rows = make(map[string]*row, len(d.Rows))
	p.appends, p.snaps = 0, 0
	for _, rd := range d.Rows {
		if shard.Of(rd.Entity, len(s.parts)) != i {
			return ErrWrongPartition
		}
		r := &row{events: append([]Event(nil), rd.Events...), lastSnap: -1}
		for j, ev := range r.events {
			if ev.Kind == SnapshotKind {
				r.lastSnap = j
				p.snaps++
			}
		}
		p.appends += uint64(len(r.events))
		p.rows[rd.Entity] = r
	}
	return nil
}

// PartitionStats is the per-partition slice of the append/snapshot
// counters, exposed so telemetry can label journal activity by partition.
type PartitionStats struct {
	Appends   uint64
	Snapshots uint64
}

// PerPartitionStats returns each partition's append/snapshot counters in
// partition order.
func (s *Store) PerPartitionStats() []PartitionStats {
	out := make([]PartitionStats, len(s.parts))
	for i, p := range s.parts {
		p.mu.RLock()
		out[i] = PartitionStats{Appends: p.appends, Snapshots: p.snaps}
		p.mu.RUnlock()
	}
	return out
}

// Stats returns storage counters aggregated over partitions. The tier
// figures are computed from each row's newest snapshot.
func (s *Store) Stats() Stats {
	var st Stats
	for _, p := range s.parts {
		p.mu.RLock()
		st.Entities += len(p.rows)
		st.Appends += p.appends
		st.Snapshots += p.snaps
		for _, r := range p.rows {
			hdd := max(r.lastSnap, 0)
			st.HDDEvents += hdd
			st.SSDEvents += len(r.events) - hdd
			for j, ev := range r.events {
				if j < hdd {
					st.HDDBytes += int64(len(ev.Payload))
				} else {
					st.SSDBytes += int64(len(ev.Payload))
				}
			}
			if replay := len(r.events) - r.lastSnap - 1; replay > st.MaxReplayLen {
				st.MaxReplayLen = replay
			}
		}
		p.mu.RUnlock()
	}
	return st
}
