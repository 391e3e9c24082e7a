package core

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"censysmap/internal/entity"
)

// This file implements the operator opt-out workflow of the paper's
// Appendix D: operators who verify ownership of a prefix can have it
// excluded from scanning. Exclusions expire after one year (the paper's
// policy) and can be rescinded. Excluding a prefix also retires the data
// already collected for it.

// Exclusion is one active opt-out.
type Exclusion struct {
	Prefix    netip.Prefix
	Requester string
	Since     time.Time
	Expires   time.Time
}

// exclusionTTL matches the paper: "we expire exclusion requests after one
// year".
const exclusionTTL = 365 * 24 * time.Hour

// AddExclusion registers a verified opt-out request for a prefix: scanning
// stops immediately, services already mapped inside the prefix are removed
// from the dataset (journaled as removals dated now), and the exclusion
// expires after one year. A journal failure while retiring is returned, with
// the exclusion itself still in force.
func (m *Map) AddExclusion(prefix netip.Prefix, requester string) (Exclusion, error) {
	if !prefix.Addr().Is4() {
		return Exclusion{}, fmt.Errorf("core: exclusions are IPv4 prefixes")
	}
	now := m.clock.Now()
	ex := Exclusion{Prefix: prefix.Masked(), Requester: requester,
		Since: now, Expires: now.Add(exclusionTTL)}
	m.exclusions = append(m.exclusions, ex)
	m.syncExclusions()

	// Retire already-collected data: journal the removal of every dataset
	// slot in the prefix, in canonical order so the removal events are
	// appended deterministically; the drain takes them out of the read models.
	var hosts []netip.Addr
	m.processor.Walk(func(_ string, h *entity.Host) {
		if prefix.Contains(h.IP) {
			hosts = append(hosts, h.IP)
		}
	})
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].Less(hosts[j]) })
	var firstErr error
	for _, addr := range hosts {
		if err := m.retireHost(addr, now); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m.processor.Drain()
	return ex, firstErr
}

// RemoveExclusion rescinds an opt-out (operators often do once they
// understand the scanning's intent, per Appendix D); scanning resumes on the
// next discovery pass.
func (m *Map) RemoveExclusion(prefix netip.Prefix) bool {
	masked := prefix.Masked()
	for i, ex := range m.exclusions {
		if ex.Prefix == masked {
			m.exclusions = append(m.exclusions[:i], m.exclusions[i+1:]...)
			m.syncExclusions()
			return true
		}
	}
	return false
}

// Exclusions returns the active opt-outs, pruning expired ones.
func (m *Map) Exclusions() []Exclusion {
	m.pruneExclusions(m.clock.Now())
	out := make([]Exclusion, len(m.exclusions))
	copy(out, m.exclusions)
	return out
}

// pruneExclusions drops expired entries (checked lazily and each tick).
func (m *Map) pruneExclusions(now time.Time) {
	kept := m.exclusions[:0]
	changed := false
	for _, ex := range m.exclusions {
		if now.After(ex.Expires) {
			changed = true
			continue
		}
		kept = append(kept, ex)
	}
	m.exclusions = kept
	if changed {
		m.syncExclusions()
	}
}

// syncExclusions pushes the active set (static config + dynamic opt-outs)
// into the discovery engine and the predictive engine's topology, which
// prunes excluded subtrees so they can never emit a prediction target.
func (m *Map) syncExclusions() {
	prefixes := append([]netip.Prefix(nil), m.cfg.Excluded...)
	for _, ex := range m.exclusions {
		prefixes = append(prefixes, ex.Prefix)
	}
	m.disc.SetExcluded(prefixes)
	m.predictor.SetExcluded(prefixes)
}

// excludedAddr reports whether addr is currently opted out (used by the
// refresh and prediction paths, which do not go through discovery).
func (m *Map) excludedAddr(addr netip.Addr) bool {
	for _, p := range m.cfg.Excluded {
		if p.Contains(addr) {
			return true
		}
	}
	for _, ex := range m.exclusions {
		if ex.Prefix.Contains(addr) {
			return true
		}
	}
	return false
}
