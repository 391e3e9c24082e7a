package cqrs

import (
	"fmt"
	"sort"
	"sync"
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

// CertIndex is the asynchronously maintained secondary read model mapping
// certificate fingerprint -> service locations (paper §5.2: "secondary
// tables that map from certificate fingerprint to IP address"). Wire it to a
// Processor with Follow.
type CertIndex struct {
	mu sync.RWMutex
	// byFP maps fingerprint -> set of "ip port" locators.
	byFP map[string]map[certLoc]struct{}
}

type certLoc struct {
	entity string
	key    string
}

// NewCertIndex creates an empty index.
func NewCertIndex() *CertIndex {
	return &CertIndex{byFP: make(map[string]map[certLoc]struct{})}
}

// Follow subscribes the index to a processor's event stream.
func (ci *CertIndex) Follow(p *Processor) {
	p.Subscribe(ci.Consume)
}

// Consume applies one write-side event to the index.
func (ci *CertIndex) Consume(ev OutEvent) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	loc := certLoc{entity: ev.Entity, key: ev.Key.String()}
	switch ev.Kind {
	case KindServiceFound, KindServiceChanged, KindServiceRestored:
		if ev.Service == nil {
			return
		}
		// A changed cert must drop stale locators for this slot.
		for fp, locs := range ci.byFP {
			if fp == ev.Service.CertSHA256 {
				continue
			}
			delete(locs, loc)
			if len(locs) == 0 {
				delete(ci.byFP, fp)
			}
		}
		if ev.Service.CertSHA256 == "" {
			return
		}
		set := ci.byFP[ev.Service.CertSHA256]
		if set == nil {
			set = make(map[certLoc]struct{})
			ci.byFP[ev.Service.CertSHA256] = set
		}
		set[loc] = struct{}{}
	case KindServiceRemoved:
		for fp, locs := range ci.byFP {
			delete(locs, loc)
			if len(locs) == 0 {
				delete(ci.byFP, fp)
			}
		}
	}
}

// Locations returns "entity key" locators currently presenting the
// fingerprint, sorted — the threat-hunting pivot ("what IPs has certificate
// X been seen on?").
func (ci *CertIndex) Locations(fingerprint string) []string {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	var out []string
	for loc := range ci.byFP[fingerprint] {
		out = append(out, fmt.Sprintf("%s %s", loc.entity, loc.key))
	}
	sort.Strings(out)
	return out
}

// DropEntities removes every locator whose entity matches pred — the
// degraded-mode purge: when a journal partition is quarantined, its hosts'
// certificate pivots must disappear with it rather than dangle.
func (ci *CertIndex) DropEntities(pred func(entity string) bool) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	for fp, locs := range ci.byFP {
		for loc := range locs {
			if pred(loc.entity) {
				delete(locs, loc)
			}
		}
		if len(locs) == 0 {
			delete(ci.byFP, fp)
		}
	}
}

// Entities returns every entity some locator names, sorted.
func (ci *CertIndex) Entities() []string {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	seen := make(map[string]bool)
	for _, locs := range ci.byFP {
		for loc := range locs {
			seen[loc.entity] = true
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Fingerprints returns how many distinct certificates are indexed.
func (ci *CertIndex) Fingerprints() int {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	return len(ci.byFP)
}
