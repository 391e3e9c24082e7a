package cqrs

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"censysmap/internal/entity"
	"censysmap/internal/journal"
	"censysmap/internal/shard"
)

// Observation is the write-side command: the outcome of one service
// interrogation (or refresh attempt).
type Observation struct {
	Addr      netip.Addr
	Port      uint16
	Transport entity.Transport
	Time      time.Time
	PoP       string
	Method    entity.DetectionMethod
	// Success reports the interrogation reached a service. Service holds
	// the structured record when Success is true.
	Success bool
	Service *entity.Service
}

// Key returns the service slot the observation addresses.
func (o *Observation) Key() entity.ServiceKey {
	return entity.ServiceKey{Port: o.Port, Transport: o.Transport}
}

// OutEvent is an update emitted to the async processing queue after the
// journal append — the trigger for read-model updates, follow-up scans, and
// downstream applications.
type OutEvent struct {
	Entity  string
	Kind    string
	Time    time.Time
	Service *entity.Service // set for found/changed/restored
	Key     entity.ServiceKey
}

// Config tunes the write side. NewProcessor gives a zero field the paper's
// production choice.
type Config struct {
	// EvictAfter is how long a service stays pending-removal before it is
	// evicted (the paper's 72-hour compromise, §4.6).
	EvictAfter time.Duration
	// SnapshotEvery bounds replay length: a snapshot is journaled after
	// this many delta events per entity.
	SnapshotEvery int
	// Shards is the number of independently locked state shards. Entities
	// are routed by a stable hash of their ID, so one entity's state, queue
	// position, and journal rows always live on one shard. <= 0 means 1.
	Shards int
}

// procShard is one independently locked slice of the write side. All state
// for an entity lives on exactly one shard, so Apply calls for different
// entities on different shards never contend.
type procShard struct {
	mu sync.Mutex
	// state is the write-side current state per entity; it is exactly what
	// snapshot+replay reconstructs, kept materialized for O(1) diffing.
	state map[string]*entity.Host
	// enc amortizes payload encoding: deltas are marshalled into a reused
	// scratch buffer and interned into arena chunks, since the journal
	// retains every payload indefinitely. Guarded by mu.
	enc eventEncoder

	queue []OutEvent
}

// Processor is the write side: it turns observations into journaled deltas
// and maintains the authoritative current state used for diffing. It is
// sharded by entity ID and safe for concurrent Apply calls.
type Processor struct {
	cfg     Config
	journal *journal.Store
	shards  []*procShard

	subMu       sync.RWMutex
	subscribers []func(OutEvent)

	// Counters for evaluation.
	observations atomic.Uint64
	noChange     atomic.Uint64

	// tel is the optional telemetry hookup (see AttachTelemetry); nil means
	// disabled and every instrument call is a nil-receiver no-op.
	tel *cqrsTel
}

// NewProcessor creates a write-side processor over the given journal.
func NewProcessor(cfg Config, j *journal.Store) *Processor {
	if cfg.EvictAfter <= 0 {
		cfg.EvictAfter = 72 * time.Hour
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 16
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	p := &Processor{cfg: cfg, journal: j, shards: make([]*procShard, cfg.Shards)}
	for i := range p.shards {
		p.shards[i] = &procShard{state: make(map[string]*entity.Host)}
	}
	return p
}

// Journal returns the underlying event journal.
func (p *Processor) Journal() *journal.Store { return p.journal }

func (p *Processor) shardFor(id string) *procShard {
	return p.shards[shard.Of(id, len(p.shards))]
}

// Subscribe registers an async consumer of write-side events. Subscribers
// run when Drain is called, mirroring the paper's queue-decoupled
// asynchronous event processing.
func (p *Processor) Subscribe(fn func(OutEvent)) {
	p.subMu.Lock()
	defer p.subMu.Unlock()
	p.subscribers = append(p.subscribers, fn)
}

// Apply processes one observation: retrieve state, diff, journal the delta,
// enqueue the event (the four write-side steps of §5.2). Concurrent calls
// for entities on different shards proceed in parallel; calls for one
// entity serialize on its shard lock.
func (p *Processor) Apply(obs Observation) error {
	p.observations.Add(1)

	id := obs.Addr.String()
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()

	h := s.state[id]
	if h == nil {
		h = entity.NewHost(obs.Addr)
		s.state[id] = h
	}
	key := obs.Key()
	existing := h.Service(key)

	switch {
	case obs.Success && obs.Service != nil:
		svc := obs.Service.Clone()
		svc.LastSeen = obs.Time
		svc.SourcePoP = obs.PoP
		if existing == nil {
			svc.FirstSeen = obs.Time
			svc.Method = obs.Method
			return p.emit(s, h, obs.Time, KindServiceFound, svc)
		}
		svc.FirstSeen = existing.FirstSeen
		svc.Method = existing.Method
		wasPending := existing.PendingRemovalSince != nil
		if existing.ConfigEqual(svc) && !wasPending {
			// Stable record: refresh confirmed the same configuration.
			// Nothing is journaled; only liveness bookkeeping moves.
			existing.LastSeen = obs.Time
			existing.SourcePoP = obs.PoP
			p.noChange.Add(1)
			return nil
		}
		svc.PendingRemovalSince = nil
		kind := KindServiceChanged
		if wasPending && existing.ConfigEqual(svc) {
			kind = KindServiceRestored
		}
		return p.emit(s, h, obs.Time, kind, svc)

	case !obs.Success && existing != nil:
		if existing.PendingRemovalSince == nil {
			// First failed refresh: start the eviction timer.
			since := obs.Time
			existing.PendingRemovalSince = &since
			return p.emitKey(s, h, obs.Time, KindServicePending, key, since)
		}
		if obs.Time.Sub(*existing.PendingRemovalSince) >= p.cfg.EvictAfter {
			h.RemoveService(key)
			return p.emitKey(s, h, obs.Time, KindServiceRemoved, key, *existing.PendingRemovalSince)
		}
		return nil // still inside the grace window

	default:
		return nil // failed scan of an unknown slot: nothing to record
	}
}

// Retire evicts a materialized service at once, dated t, without the grace
// window Apply gives a failed refresh: the opt-out path, where data already
// collected is removed on request. A slot the entity does not hold is a
// no-op.
func (p *Processor) Retire(addr netip.Addr, key entity.ServiceKey, t time.Time) error {
	id := addr.String()
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()

	h := s.state[id]
	if h == nil {
		return nil
	}
	existing := h.Service(key)
	if existing == nil {
		return nil
	}
	since := t
	if existing.PendingRemovalSince != nil {
		since = *existing.PendingRemovalSince
	}
	h.RemoveService(key)
	return p.emitKey(s, h, t, KindServiceRemoved, key, since)
}

// emit journals a service-carrying delta and updates write-side state. The
// caller holds the shard lock.
func (p *Processor) emit(s *procShard, h *entity.Host, t time.Time, kind string, svc *entity.Service) error {
	if _, err := p.journal.Append(h.ID(), t, kind, s.enc.serviceEvent(svc)); err != nil {
		return err
	}
	h.SetService(svc)
	if t.After(h.LastUpdated) {
		h.LastUpdated = t
	}
	p.afterAppend(s, h, t)
	p.tel.event(kind)
	s.queue = append(s.queue, OutEvent{Entity: h.ID(), Kind: kind, Time: t, Service: svc, Key: svc.Key()})
	return nil
}

// emitKey journals a key-only delta (pending/removed). The caller holds the
// shard lock.
func (p *Processor) emitKey(s *procShard, h *entity.Host, t time.Time, kind string, key entity.ServiceKey, since time.Time) error {
	if _, err := p.journal.Append(h.ID(), t, kind, s.enc.keyEvent(key, since)); err != nil {
		return err
	}
	if t.After(h.LastUpdated) {
		h.LastUpdated = t
	}
	p.afterAppend(s, h, t)
	p.tel.event(kind)
	s.queue = append(s.queue, OutEvent{Entity: h.ID(), Kind: kind, Time: t, Key: key})
	return nil
}

// afterAppend maintains snapshot cadence from the journal's count of deltas
// since the entity's newest snapshot. The caller holds the shard lock.
func (p *Processor) afterAppend(s *procShard, h *entity.Host, t time.Time) {
	id := h.ID()
	if p.journal.EventsSinceSnapshot(id) >= p.cfg.SnapshotEvery {
		// A failed snapshot leaves the count where it was, so the next
		// append retries it.
		_, _ = p.journal.AppendSnapshot(id, t, s.enc.hostSnapshot(h))
	}
}

// Drain fans in the shard queues and dispatches queued events to
// subscribers, returning how many were processed. Events are delivered in a
// deterministic merged order — shard index first, then each shard's queue in
// sequence — so the read-model update order never depends on goroutine
// scheduling during the preceding Apply calls.
func (p *Processor) Drain() int {
	var events []OutEvent
	for _, s := range p.shards {
		s.mu.Lock()
		events = append(events, s.queue...)
		s.queue = nil
		s.mu.Unlock()
	}
	p.subMu.RLock()
	subs := make([]func(OutEvent), len(p.subscribers))
	copy(subs, p.subscribers)
	p.subMu.RUnlock()
	for _, ev := range events {
		for _, fn := range subs {
			fn(ev)
		}
	}
	return len(events)
}

// QueueLen reports pending async events across all shards.
func (p *Processor) QueueLen() int {
	n := 0
	for _, s := range p.shards {
		s.mu.Lock()
		n += len(s.queue)
		s.mu.Unlock()
	}
	return n
}

// CurrentState returns the write side's materialized state for an entity
// (cloned), or nil. This backs the fast current-state lookup path.
func (p *Processor) CurrentState(id string) *entity.Host {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state[id].Clone()
}

// LastSeen reports when the entity's materialized state last confirmed the
// slot, and whether it holds the slot at all, without cloning the host.
func (p *Processor) LastSeen(id string, key entity.ServiceKey) (time.Time, bool) {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.state[id]; h != nil {
		if svc := h.Service(key); svc != nil {
			return svc.LastSeen, true
		}
	}
	return time.Time{}, false
}

// Walk calls fn once per entity with materialized state, in no particular
// order, holding the entity's shard lock: fn reads the live, uncloned host
// and must neither retain it nor call back into the Processor.
func (p *Processor) Walk(fn func(id string, h *entity.Host)) {
	for _, s := range p.shards {
		s.mu.Lock()
		for id, h := range s.state {
			fn(id, h)
		}
		s.mu.Unlock()
	}
}

// Stats reports write-side counters: total observations and how many were
// no-change refreshes (the delta-encoding win).
func (p *Processor) Stats() (observations, noChange uint64) {
	return p.observations.Load(), p.noChange.Load()
}
