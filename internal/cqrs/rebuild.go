package cqrs

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sort"
	"time"

	"censysmap/internal/binrec"
	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

// RebuildProcessor reconstructs a write-side Processor from a journal alone —
// the crash-recovery path. Every entity's materialized state is rebuilt from
// its latest snapshot plus delta replay (the same reducer the query side
// uses). The snapshot cadence is the journal's own count, so a resumed
// processor journals its next snapshot at exactly the tick the uninterrupted
// run would have.
//
// What replay cannot reconstruct is the deliberately un-journaled liveness
// bookkeeping (LastSeen/SourcePoP moved by no-change refreshes); the caller
// patches that from a Checkpoint via RestoreEphemeral.
func RebuildProcessor(cfg Config, j *journal.Store, asOf time.Time) (*Processor, error) {
	p := NewProcessor(cfg, j)
	for _, id := range j.Entities() {
		snap, deltas, found := j.Replay(id, asOf)
		if !found {
			continue
		}
		h, err := replayHost(id, snap, deltas)
		if err != nil {
			return nil, fmt.Errorf("cqrs: rebuild %s: %w", id, err)
		}
		p.shardFor(id).state[id] = h
	}
	return p, nil
}

// RebuildSnapshotPayload reconstructs the byte payload of a snapshot event
// from the events that precede it: the latest prior snapshot (or a fresh
// host) with the intervening deltas replayed, encoded exactly as the write
// side encodes snapshots. The storage engine uses it to repair corrupt
// snapshot records — the caller proves byte-exactness by checking the
// candidate against the stored frame CRC, which is why replay drift (e.g.
// un-journaled LastSeen movement baked into the original snapshot) safely
// fails the repair instead of corrupting state.
func RebuildSnapshotPayload(id string, prior []journal.Event) ([]byte, error) {
	var snap journal.Event
	start := -1
	for i := len(prior) - 1; i >= 0; i-- {
		if prior[i].Kind == journal.SnapshotKind {
			snap, start = prior[i], i
			break
		}
	}
	h, err := replayHost(id, snap, prior[start+1:])
	if err != nil {
		return nil, fmt.Errorf("cqrs: rebuild snapshot %s: %w", id, err)
	}
	return EncodeHostSnapshot(h), nil
}

// replayHost reduces an entity's latest snapshot (a non-snapshot snap means
// it has none yet: start from an empty host) and the deltas after it to the
// host they describe — the one reducer behind history lookups, processor
// rebuild and snapshot repair.
func replayHost(id string, snap journal.Event, deltas []journal.Event) (*entity.Host, error) {
	var h *entity.Host
	if snap.Kind == journal.SnapshotKind {
		decoded, err := DecodeHostSnapshot(snap.Payload)
		if err != nil {
			return nil, err
		}
		h = decoded
	} else {
		addr, err := netip.ParseAddr(id)
		if err != nil {
			return nil, err
		}
		h = entity.NewHost(addr)
	}
	for _, ev := range deltas {
		if err := ApplyEvent(h, ev); err != nil {
			return nil, fmt.Errorf("seq %d: %w", ev.Seq, err)
		}
	}
	return h, nil
}

// SlotLiveness is one live slot's un-journaled refresh bookkeeping: a
// no-change refresh moves a service's LastSeen/SourcePoP without journaling
// (it changes every scan and would defeat delta encoding), so the
// journal-rebuilt record can trail the live one by exactly these two fields.
type SlotLiveness struct {
	Entity string
	Key    string
	At     time.Time
	PoP    string
}

// Liveness is every materialized slot's liveness, ascending by (Entity, Key).
// In a checkpoint it is one binary section (binrec.DecodeSection):
//
//	slots := p:uvarint pop{p} n:uvarint (entity key at:time pop:uvarint){n}
//
// The PoP table ascends strictly and names only PoPs some slot holds; a slot
// gives its PoP's index. entity and key are binrec.AppendFront-coded against
// the previous slot's and at is binrec.AppendTime against the previous slot's
// (the first's against 0), so one list has one encoding.
type Liveness []SlotLiveness

func (l Liveness) MarshalJSON() ([]byte, error) {
	pops := make(map[string]int)
	for _, sl := range l {
		pops[sl.PoP] = 0
	}
	names := slices.Sorted(maps.Keys(pops))
	dst := binary.AppendUvarint(nil, uint64(len(names)))
	for i, name := range names {
		pops[name] = i
		dst = binrec.AppendBytes(dst, name)
	}
	dst = binary.AppendUvarint(dst, uint64(len(l)))
	var prev SlotLiveness
	var at int64
	for i, sl := range l {
		if i > 0 && cmp.Or(cmp.Compare(sl.Entity, prev.Entity), cmp.Compare(sl.Key, prev.Key)) <= 0 {
			return nil, fmt.Errorf("cqrs: liveness out of order at %s %s", sl.Entity, sl.Key)
		}
		dst = binrec.AppendFront(dst, prev.Entity, sl.Entity)
		dst = binrec.AppendFront(dst, prev.Key, sl.Key)
		dst = binrec.AppendTime(dst, sl.At, at)
		dst = binary.AppendUvarint(dst, uint64(pops[sl.PoP]))
		prev, at = sl, sl.At.Unix()
	}
	return binrec.AppendSection(nil, dst), nil
}

func (l *Liveness) UnmarshalJSON(data []byte) error {
	return binrec.DecodeSection("slots", data, func(r *binrec.Reader) {
		names := make([]string, r.Items("pops"))
		for i := range names {
			names[i] = string(r.Bytes("pop"))
			if i > 0 && names[i] <= names[i-1] {
				r.Fail("pops out of order")
			}
		}
		used := make([]bool, len(names))
		out := make(Liveness, r.Items("slots"))
		var prev SlotLiveness
		var at int64
		for i := range out {
			sl := &out[i]
			sl.Entity = r.Front("entity", prev.Entity)
			sl.Key = r.Front("key", prev.Key)
			sl.At = r.Time("at", at)
			pop := r.Count("pop")
			if r.Err != nil {
				return
			}
			if pop >= len(names) {
				r.Fail("pop: out of range")
				return
			}
			if i > 0 && cmp.Or(cmp.Compare(sl.Entity, prev.Entity), cmp.Compare(sl.Key, prev.Key)) <= 0 {
				r.Fail("slots out of order")
				return
			}
			sl.PoP, used[pop] = names[pop], true
			prev, at = *sl, sl.At.Unix()
		}
		if slices.Contains(used, false) {
			r.Fail("a pop no slot holds")
		}
		*l = out
	})
}

// Ephemeral is the write-side state that lives outside the journal: the
// per-slot liveness of every materialized service and the evaluation
// counters. Together with RebuildProcessor it makes a processor restart
// bit-exact.
type Ephemeral struct {
	Observations uint64   `json:"observations"`
	NoChange     uint64   `json:"no_change"`
	Slots        Liveness `json:"slots,omitempty"`
}

// Ephemeral captures the un-journaled write-side state in canonical order.
// The materialized records are the only owner of liveness, so an evicted
// slot leaves the list with its record.
func (p *Processor) Ephemeral() Ephemeral {
	e := Ephemeral{Observations: p.observations.Load(), NoChange: p.noChange.Load()}
	p.Walk(func(id string, h *entity.Host) {
		for key, svc := range h.Services {
			e.Slots = append(e.Slots, SlotLiveness{Entity: id, Key: key, At: svc.LastSeen, PoP: svc.SourcePoP})
		}
	})
	sort.Slice(e.Slots, func(i, j int) bool {
		if e.Slots[i].Entity != e.Slots[j].Entity {
			return e.Slots[i].Entity < e.Slots[j].Entity
		}
		return e.Slots[i].Key < e.Slots[j].Key
	})
	return e
}

// RestoreEphemeral patches captured liveness onto a rebuilt processor's
// records; an entry whose slot replay did not materialize is ignored. (For
// slots whose latest movement was journaled the patch is a no-op: the
// journaled delta carries the same LastSeen/SourcePoP.)
func (p *Processor) RestoreEphemeral(e Ephemeral) {
	p.observations.Store(e.Observations)
	p.noChange.Store(e.NoChange)
	for _, sl := range e.Slots {
		s := p.shardFor(sl.Entity)
		s.mu.Lock()
		if h := s.state[sl.Entity]; h != nil {
			if svc := h.Services[sl.Key]; svc != nil {
				svc.LastSeen = sl.At
				svc.SourcePoP = sl.PoP
			}
		}
		s.mu.Unlock()
	}
}
