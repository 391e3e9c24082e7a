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
// tables that map from certificate fingerprint to IP address"). It is a pure
// function of the write-side state — every materialized service carrying a
// certificate — so it is never carried across a crash: Follow builds it from
// what the processor holds and keeps it current from there.
type CertIndex struct {
	mu sync.RWMutex
	// byFP maps fingerprint -> set of "ip port" locators.
	byFP map[string]map[certLoc]struct{}
	// fpOf is each located slot's current fingerprint, so an event touches
	// the one set its slot is in.
	fpOf map[certLoc]string
}

type certLoc struct {
	entity string
	key    string
}

// NewCertIndex creates an empty index.
func NewCertIndex() *CertIndex {
	return &CertIndex{
		byFP: make(map[string]map[certLoc]struct{}),
		fpOf: make(map[certLoc]string),
	}
}

// Follow indexes every service the processor materializes now and subscribes
// the index to its event stream. Call it with the processor's queue drained
// (a new or just-rebuilt processor's is empty).
func (ci *CertIndex) Follow(p *Processor) {
	ci.mu.Lock()
	p.Walk(func(id string, h *entity.Host) {
		for key, svc := range h.Services {
			ci.set(certLoc{entity: id, key: key}, svc.CertSHA256)
		}
	})
	ci.mu.Unlock()
	p.Subscribe(ci.Consume)
}

// Consume applies one write-side event to the index.
func (ci *CertIndex) Consume(ev OutEvent) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	loc := certLoc{entity: ev.Entity, key: ev.Key.String()}
	switch ev.Kind {
	case KindServiceFound, KindServiceChanged, KindServiceRestored:
		if ev.Service != nil {
			ci.set(loc, ev.Service.CertSHA256)
		}
	case KindServiceRemoved:
		ci.set(loc, "")
	}
}

// set makes fp the slot's fingerprint ("" for none), dropping the locator
// from the set a changed certificate left behind. The caller holds mu.
func (ci *CertIndex) set(loc certLoc, fp string) {
	old := ci.fpOf[loc]
	if old == fp {
		return
	}
	if old != "" {
		locs := ci.byFP[old]
		delete(locs, loc)
		if len(locs) == 0 {
			delete(ci.byFP, old)
		}
	}
	if fp == "" {
		delete(ci.fpOf, loc)
		return
	}
	ci.fpOf[loc] = fp
	set := ci.byFP[fp]
	if set == nil {
		set = make(map[certLoc]struct{})
		ci.byFP[fp] = set
	}
	set[loc] = struct{}{}
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

// Entities returns every entity some locator names, sorted.
func (ci *CertIndex) Entities() []string {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	seen := make(map[string]bool)
	for loc := range ci.fpOf {
		seen[loc.entity] = true
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
