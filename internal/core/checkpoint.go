package core

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"censysmap/internal/cqrs"
	"censysmap/internal/discovery"
	"censysmap/internal/durable"
	"censysmap/internal/journal"
	"censysmap/internal/predict"
	"censysmap/internal/search"
	"censysmap/internal/shard"
	"censysmap/internal/simnet"
	"censysmap/internal/webprop"
)

// This file is the crash-recovery surface. The storage split mirrors the
// production system:
//
//   - Durable is what survives a process crash because it lives in external
//     stores: the event journals (the CQRS source of truth) and the search
//     index (the one read model carried; see Durable).
//   - The processor's materialized write-side state is NOT durable: it is
//     rebuilt from the journal (snapshot + delta replay) on Resume — the
//     whole point of event sourcing. An analytics snapshot is a date
//     (first_daily..last_daily) whose rows the journal replays on read.
//   - Checkpoint carries only what replay cannot reach: the small,
//     fast-changing pipeline bookkeeping (un-journaled liveness, scan
//     positions, model state, counters) serialized at a tick boundary. It is
//     plain data and JSON round-trips. It holds no per-slot table but
//     processor.slots: the refresh set is the rebuilt write-side state.
//   - The checkpoint's envelope is JSON, because bench/, the chaos harness and
//     its disk suite decode it with plain encoding/json. Its three bulk
//     sections — the predictor's model, processor.slots and web_props.names
//     — are each a JSON string holding a strict binary body their owning
//     package writes and reads (binrec.DecodeSection): decoding the model by
//     reflection was most of a recovery's checkpoint decode. A value in the
//     older array or object shape is refused, naming the section; durable
//     already CRC-frames the whole record.
//
// Checkpoints are only consistent at tick boundaries: mid-tick, probes have
// consumed path-sequence numbers that no replay can reissue. Map.Checkpoint
// must therefore be called between ticks (after Drain has run), which is
// exactly when the chaos harness calls it.

// Durable bundles the stores that survive a crash: those that own data and
// the one read model that is dear to re-derive. The search index's documents
// derive from the write side too (each as of its host's last event drain),
// but re-tokenizing costs ~74 µs per host (ROADMAP item 3), which would
// double recover_ms on scan_refresh. The cert→host pivot reads the index's
// postings and analytics rows are materialized on read, so neither is here.
type Durable struct {
	// Journal is the host-event journal (the source of truth).
	Journal *journal.Store
	// WebJournal is the web-property pipeline's journal.
	WebJournal *journal.Store
	// Index is the interactive search index.
	Index *search.Index

	// Quarantined lists journal partitions the storage engine could not
	// recover (indices into Journal's partition space). A Map resumed with
	// quarantined partitions comes up in degraded mode: it fences writes
	// for their address slice, purges their index documents, and advertises
	// the degradation via telemetry and response headers.
	Quarantined []int
	// Storage carries the storage engine's recovery counters so the
	// censys_storage_* telemetry survives into the resumed process.
	Storage *durable.Metrics
}

// Durable returns the Map's crash-surviving stores, for handing to Resume.
func (m *Map) Durable() Durable {
	return Durable{
		Journal:     m.processor.Journal(),
		WebJournal:  m.webProps.Journal(),
		Index:       m.index,
		Quarantined: m.QuarantinedPartitions(),
		Storage:     m.storageMetrics,
	}
}

// SaveDurable persists the Map's journals and a freshly taken checkpoint to
// dir through the durable storage engine, without stopping the Map. Like
// Checkpoint, call it only between ticks. With opts.Incremental set, only
// journal partitions whose content generation moved since the previous save
// into dir are rewritten, so a steady save cadence costs proportional to
// churn since the last tick boundary rather than to total map size; the
// resulting manifest stitches reused and rewritten partition generations
// together and loads through the unchanged recovery path.
func (m *Map) SaveDurable(dir string, opts durable.SaveOptions) error {
	cp := m.Checkpoint()
	blob, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("core: marshal checkpoint: %w", err)
	}
	d := m.Durable()
	return durable.Save(dir, []durable.NamedStore{
		{Name: "journal", Store: d.Journal},
		{Name: "webjournal", Store: d.WebJournal},
	}, blob, opts)
}

// Checkpoint is the serializable non-durable, non-replayable state of a Map,
// captured at a tick boundary. All slices are in canonical order, so two
// checkpoints of identical pipelines encode to identical bytes regardless of
// the Shards/InterroWorkers layout that produced them. Decoding skips
// sections older versions wrote and this one does not (such as `retries`
// and `found_per_host`), so their checkpoints still resume.
type Checkpoint struct {
	TakenAt time.Time `json:"taken_at"`
	Seeded  bool      `json:"seeded"`
	// FirstDaily and LastDaily bound the daily ticks taken so far (FirstDaily
	// is zero before the first); the analytics snapshot dates are the ticks
	// between them.
	FirstDaily time.Time `json:"first_daily,omitzero"`
	LastDaily  time.Time `json:"last_daily"`
	Stats      RunStats  `json:"stats"`

	Processor cqrs.Ephemeral `json:"processor"`

	// Flagged is every host a host-level filter took out of the dataset,
	// with the filter (encoding/json writes map keys sorted).
	Flagged    map[netip.Addr]flagReason `json:"flagged,omitempty"`
	FarmSeen   []FarmSeenEntry           `json:"farm_seen,omitempty"`
	Exclusions []Exclusion               `json:"exclusions,omitempty"`

	Discovery discovery.State `json:"discovery"`
	Predictor predict.State   `json:"predictor"`
	WebProps  webprop.State   `json:"web_props"`
}

// Checkpoint captures the Map's recoverable state. Call it only between
// ticks (e.g. after each clock advance of one Tick) — see the consistency
// note at the top of this file.
func (m *Map) Checkpoint() Checkpoint {
	cp := Checkpoint{
		TakenAt:    m.clock.Now(),
		Seeded:     m.seeded,
		LastDaily:  m.lastDaily,
		Stats:      m.Stats(),
		Processor:  m.processor.Ephemeral(),
		Flagged:    make(map[netip.Addr]flagReason),
		Exclusions: append([]Exclusion(nil), m.exclusions...),
		Discovery:  m.disc.State(),
		Predictor:  m.predictor.State(),
		WebProps:   m.webProps.State(),
	}
	// Thinning never drops the oldest retained date.
	if dates := m.analytics.Dates(); len(dates) > 0 {
		cp.FirstDaily = dates[0]
	}
	for _, s := range m.shards {
		s.mu.Lock()
		for a, why := range s.flagged {
			cp.Flagged[a] = why
		}
		s.mu.Unlock()
	}
	cp.FarmSeen = m.farmSeenState()
	return cp
}

// Resume rebuilds a Map from its durable stores plus a checkpoint, after a
// crash. The processor's materialized state comes from journal replay; the
// checkpoint supplies everything replay cannot reach. Call Start on the
// result to continue scanning — a resumed run is bit-identical to one that
// never crashed (see internal/chaos's differential suite).
func Resume(cfg Config, net *simnet.Internet, d Durable, cp Checkpoint) (*Map, error) {
	return build(cfg, net, &d, &cp)
}

// restore applies a checkpoint to a freshly built Map (the Resume tail).
// Bookkeeping for quarantined partitions is dropped: their journal history
// is gone, so carrying state for their addresses would schedule writes the
// degraded map must fence anyway.
func (m *Map) restore(cp *Checkpoint) error {
	m.seeded = cp.Seeded
	m.lastDaily = cp.LastDaily
	if !cp.FirstDaily.IsZero() {
		// Daily ticks are whole ticks apart, the fewest that span a day;
		// ascending, so Record has nothing to refuse.
		step := (dailyEvery + m.cfg.Tick - 1) / m.cfg.Tick * m.cfg.Tick
		for at := cp.FirstDaily; !at.After(cp.LastDaily); at = at.Add(step) {
			_ = m.analytics.Record(at)
		}
	}
	m.ticks.Store(cp.Stats.Ticks)
	m.interrogations.Store(cp.Stats.Interrogations)
	m.refreshScans.Store(cp.Stats.RefreshScans)
	m.reinjected.Store(cp.Stats.Reinjected)
	m.pseudoFiltered.Store(cp.Stats.PseudoFiltered)
	m.honeypotGated.Store(cp.Stats.HoneypotGated)
	m.honeypotsFlagged.Store(cp.Stats.HoneypotsFlagged)

	for a, why := range cp.Flagged {
		if m.quarantinedAddr(a) {
			continue
		}
		m.shardFor(a).flagged[a] = why
	}
	m.restoreFarmSeen(cp.FarmSeen)
	m.exclusions = append([]Exclusion(nil), cp.Exclusions...)
	m.syncExclusions()
	if err := m.disc.Restore(cp.Discovery); err != nil {
		return fmt.Errorf("core: restore discovery state: %w", err)
	}
	m.predictor.Restore(cp.Predictor)
	if err := m.webProps.Restore(cp.WebProps); err != nil {
		return fmt.Errorf("core: restore web-property state: %w", err)
	}
	return nil
}

// quarantinedAddr reports whether addr belongs to a quarantined journal
// partition (degraded mode only; always false on a healthy map).
func (m *Map) quarantinedAddr(addr netip.Addr) bool {
	return m.quarParts != nil && m.quarantinedID(addr.String())
}

// quarantinedID is quarantinedAddr for raw entity IDs.
func (m *Map) quarantinedID(id string) bool {
	return m.quarParts != nil && m.quarParts[shard.Of(id, m.Journal().Partitions())]
}

// Degraded reports whether the Map is serving in degraded mode.
func (m *Map) Degraded() bool { return len(m.quarParts) > 0 }

// QuarantinedPartitions returns the quarantined journal partitions in
// ascending order (nil on a healthy map). Indices are relative to the
// journal's partition count.
func (m *Map) QuarantinedPartitions() []int {
	if len(m.quarParts) == 0 {
		return nil
	}
	out := make([]int, 0, len(m.quarParts))
	for p := range m.quarParts {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}
