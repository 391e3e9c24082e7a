package core

import (
	"net/netip"
	"sort"
	"time"

	"censysmap/internal/discovery"
	"censysmap/internal/entity"
	"censysmap/internal/interro"
	"censysmap/internal/journal"
	"censysmap/internal/lookup"
	"censysmap/internal/search"
	"censysmap/internal/snapshot"
	"censysmap/internal/webprop"
)

// This file is the Map's query surface: the read-side APIs of paper §5.3.

// Stats returns a snapshot of the pipeline counters.
func (m *Map) Stats() RunStats {
	return RunStats{
		Ticks:            m.ticks.Load(),
		Interrogations:   m.interrogations.Load(),
		RefreshScans:     m.refreshScans.Load(),
		PredictiveProbes: m.ledger.ClassTotals(discovery.ClassPredict).Spent,
		Reinjected:       m.reinjected.Load(),
		PseudoFiltered:   m.pseudoFiltered.Load(),
		HoneypotGated:    m.honeypotGated.Load(),
		HoneypotsFlagged: m.honeypotsFlagged.Load(),
	}
}

// Ledger exposes the probe-budget ledger: per-class spent / confirmed /
// wasted probe targets (the evaluation harness's efficiency input).
func (m *Map) Ledger() *discovery.Ledger { return m.ledger }

// Search runs a query against the interactive search index.
func (m *Map) Search(query string) ([]*entity.Host, error) {
	return m.index.SearchHosts(query)
}

// Count returns the number of hosts matching a query.
func (m *Map) Count(query string) (int, error) {
	return m.index.Count(query)
}

// Index exposes the search index (for advanced callers).
func (m *Map) Index() *search.Index { return m.index }

// SearchCacheStats exposes the query-cache counters (hits, misses, resident
// entries, summed partition generation). Generations advance on every index
// mutation — the invalidation feed the cqrs processor's Subscribe hook drives.
//
// Deprecated: the same counters are exported on the telemetry registry as
// censys_search_result_cache_total / censys_search_plan_cache_total /
// censys_search_cache_entries and served by GET /v2/metrics; prefer
// Map.MetricsSnapshot (telemetry.go) over ad-hoc stats plumbing. Retained
// for the benchmark harness, which reads the struct directly.
func (m *Map) SearchCacheStats() search.CacheStats { return m.index.Stats() }

// Lookup exposes the fast lookup API (also usable as an http.Handler).
func (m *Map) Lookup() *lookup.Service { return m.lookupSvc }

// Host returns the host record at a timestamp (zero = now), enriched.
func (m *Map) Host(addr netip.Addr, at time.Time) (*entity.Host, bool) {
	return m.lookupSvc.Host(addr, at)
}

// HostCurrent returns the write side's materialized current state for an
// address (with live refresh bookkeeping), enriched. It is the cheap
// cached-current-state path of the lookup API.
func (m *Map) HostCurrent(addr netip.Addr) (*entity.Host, bool) {
	h := m.processor.CurrentState(addr.String())
	if h == nil || len(h.Services) == 0 {
		return nil, false
	}
	m.enricher.Enrich(h)
	return h, true
}

// History returns the journaled change history for an address.
func (m *Map) History(addr netip.Addr) []journal.Event {
	return m.reader.History(addr.String())
}

// Analytics exposes the daily-snapshot store (longitudinal queries, bulk
// export). Each read replays the journal as of the snapshot's date (rowsAt).
func (m *Map) Analytics() *snapshot.Store { return m.analytics }

// CertHosts returns the "ip port/transport" locators of the active services
// presenting a certificate, read from the search index's postings.
func (m *Map) CertHosts(fingerprint string) []string {
	return m.index.CertLocations(fingerprint)
}

// WebProperties exposes the web property pipeline.
func (m *Map) WebProperties() *webprop.Pipeline { return m.webProps }

// ServiceRecord is one row of the dataset export: the Avro-snapshot /
// BigQuery view of §5.3, used by the evaluation harness.
type ServiceRecord struct {
	Addr      netip.Addr
	Port      uint16
	Transport entity.Transport
	Protocol  string
	Verified  bool
	TLS       bool
	Method    entity.DetectionMethod
	LastSeen  time.Time
	Pending   bool
}

// CurrentServices exports every service currently in the dataset, sorted.
// Services pending removal are excluded unless includePending is set — the
// "pending_removal_since is null" filter of the paper's own evaluation
// query (Appendix E).
func (m *Map) CurrentServices(includePending bool) []ServiceRecord {
	var out []ServiceRecord
	m.processor.Walk(func(_ string, h *entity.Host) {
		for _, svc := range h.Services {
			if svc.PendingRemovalSince != nil && !includePending {
				continue
			}
			out = append(out, ServiceRecord{
				Addr: h.IP, Port: svc.Port, Transport: svc.Transport,
				Protocol: svc.Protocol, Verified: svc.Verified, TLS: svc.TLS,
				Method: svc.Method, LastSeen: svc.LastSeen,
				Pending: svc.PendingRemovalSince != nil,
			})
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr.Less(out[j].Addr)
		}
		if out[i].Port != out[j].Port {
			return out[i].Port < out[j].Port
		}
		return out[i].Transport < out[j].Transport
	})
	return out
}

// Journal exposes the raw event journal (read-only use).
func (m *Map) Journal() *journal.Store { return m.processor.Journal() }

// JournalStats exposes storage counters for the ablation benches.
func (m *Map) JournalStats() journal.Stats { return m.processor.Journal().Stats() }

// WriteStats exposes (observations, unchanged-refresh) counters: the
// fraction of refreshes that journal nothing is the delta-encoding win.
func (m *Map) WriteStats() (observations, noChange uint64) { return m.processor.Stats() }

// DiscoveryStats exposes the discovery engine's counters, including the
// adaptive-backoff accounting (deferred probes, backoffs, rotations).
func (m *Map) DiscoveryStats() discovery.Stats { return m.disc.Stats() }

// InterroDeadlineStats sums the deadline-budget exhaustion counters across
// every PoP's interrogator.
func (m *Map) InterroDeadlineStats() interro.DeadlineStats {
	var total interro.DeadlineStats
	for _, pop := range m.pops {
		ds := m.inter[pop.Name].DeadlineStats()
		total.ReadCapExhausted += ds.ReadCapExhausted
		total.HandshakeExhausted += ds.HandshakeExhausted
		total.TotalExhausted += ds.TotalExhausted
		total.VirtualMillis += ds.VirtualMillis
	}
	return total
}

// InterroStats sums interrogation outcome counters across every PoP.
func (m *Map) InterroStats() interro.Stats {
	var total interro.Stats
	for _, pop := range m.pops {
		s := m.inter[pop.Name].Stats()
		total.Attempts += s.Attempts
		total.NoContact += s.NoContact
		total.Identified += s.Identified
		total.Unknown += s.Unknown
	}
	return total
}

// flaggedHosts lists the hosts flagged for one reason, sorted.
func (m *Map) flaggedHosts(why flagReason) []netip.Addr {
	var out []netip.Addr
	for _, s := range m.shards {
		s.mu.Lock()
		for a, r := range s.flagged {
			if r == why {
				out = append(out, a)
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// PseudoHosts reports how many hosts the pseudo filter has flagged.
func (m *Map) PseudoHosts() int { return len(m.flaggedHosts(flagPseudo)) }

// HoneypotHosts returns every currently flagged honeypot host, sorted.
func (m *Map) HoneypotHosts() []netip.Addr { return m.flaggedHosts(flagHoneypot) }
