package core

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"

	"censysmap/internal/entity"
)

// CheckInvariants states the single-owner rule as code: the write side's
// materialized state is the dataset; the read models are derived from it and
// the flagged set, the exclusions and the quarantine only gate what enters
// it. So at a tick boundary (after Drain) no barred host — one a host-level
// filter flagged, one inside cfg.Excluded or an active exclusion, one homed on
// a quarantined partition — has a materialized service, the search index
// holds a document for exactly the hosts that have one and posts exactly what
// those documents hold (search.Index.Verify). It returns every violation
// found, nil when consistent.
func (m *Map) CheckInvariants() error {
	var hosts []netip.Addr
	m.processor.Walk(func(_ string, h *entity.Host) {
		if len(h.Services) > 0 {
			hosts = append(hosts, h.IP)
		}
	})
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].Less(hosts[j]) })

	var errs []error
	for _, addr := range hosts {
		id := addr.String()
		if why := m.barred(addr); why != "" {
			errs = append(errs, fmt.Errorf("%s host %v has materialized services", why, addr))
		}
		if !m.index.Has(id) {
			errs = append(errs, fmt.Errorf("host %v has materialized services but no index document", addr))
		}
	}
	if n := m.index.Len(); n != len(hosts) {
		errs = append(errs, fmt.Errorf("index holds %d documents for %d hosts with services", n, len(hosts)))
	}
	if err := m.index.Verify(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// barred names why addr must not be in the dataset ("" when it may be).
func (m *Map) barred(addr netip.Addr) string {
	s := m.shardFor(addr)
	s.mu.Lock()
	why, flagged := s.flagged[addr]
	s.mu.Unlock()
	switch {
	case flagged:
		return string(why)
	case m.excludedAddr(addr):
		return "excluded"
	case m.quarantinedAddr(addr):
		return "quarantined"
	}
	return ""
}
