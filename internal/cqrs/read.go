package cqrs

import (
	"time"

	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

// Enricher attaches derived, read-time context (geolocation, ASN, software
// labels, vulnerabilities) to a reconstructed host. Enrichment happens at
// read time because derived context is recomputable and would otherwise
// bloat the journal (paper §5.2 read side).
type Enricher interface {
	Enrich(h *entity.Host)
}

// EnricherFunc adapts a function to the Enricher interface.
type EnricherFunc func(h *entity.Host)

// Enrich implements Enricher.
func (f EnricherFunc) Enrich(h *entity.Host) { f(h) }

// Reader is the query side: it reconstructs entity state at a timestamp from
// the journal and applies enrichment.
type Reader struct {
	journal  *journal.Store
	enricher Enricher
}

// NewReader creates a read-side accessor. enricher may be nil.
func NewReader(j *journal.Store, enricher Enricher) *Reader {
	return &Reader{journal: j, enricher: enricher}
}

// HostAt reconstructs the host with the given entity ID as it looked at
// asOf: latest snapshot before asOf, plus replayed deltas (paper §5.2
// "lookup APIs"). ok is false if the entity did not exist yet.
func (r *Reader) HostAt(id string, asOf time.Time) (*entity.Host, bool) {
	snap, deltas, found := r.journal.Replay(id, asOf)
	if !found {
		return nil, false
	}
	h, err := replayHost(id, snap, deltas)
	if err != nil {
		return nil, false
	}
	if r.enricher != nil {
		r.enricher.Enrich(h)
	}
	return h, true
}

// History returns the journaled change events for an entity — the long-term
// record users query to understand how an Internet entity evolved.
func (r *Reader) History(id string) []journal.Event {
	return r.journal.Events(id)
}
