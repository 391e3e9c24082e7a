package core

import (
	"errors"
	"fmt"
	"net/netip"
)

// CheckInvariants states the single-owner rule for per-slot facts as code:
// the write side's materialized records own liveness and everything else is
// derived from them. So at a tick boundary (after Drain) known must equal
// liveSlots — the set Resume installs — with equal timestamps and UDP
// protocols, and the search index must hold a document for exactly the hosts
// of that set. It returns every violation found, nil when consistent.
func (m *Map) CheckInvariants() error {
	var errs []error
	hosts := make(map[netip.Addr]bool)
	for i, want := range m.liveSlots() {
		s := m.shards[i]
		s.mu.Lock()
		for key, ks := range s.known {
			if w, ok := want[key]; !ok || !w.last.Equal(ks.last) || w.udp != ks.udp {
				errs = append(errs, fmt.Errorf("known slot %v is %v %q, its live service record (present: %v) says %v %q",
					key, ks.last, ks.udp, ok, w.last, w.udp))
			}
		}
		for key := range want {
			hosts[key.addr] = true
			if _, ok := s.known[key]; !ok {
				errs = append(errs, fmt.Errorf("live service %v is missing from known", key))
			}
		}
		s.mu.Unlock()
	}
	for addr := range hosts {
		if m.index.Host(addr.String()) == nil {
			errs = append(errs, fmt.Errorf("host %v has live services but no index document", addr))
		}
	}
	if n := m.index.Len(); n != len(hosts) {
		errs = append(errs, fmt.Errorf("index holds %d documents for %d live hosts", n, len(hosts)))
	}
	return errors.Join(errs...)
}

func (k slotKey) String() string { return fmt.Sprintf("%v:%d/%s", k.addr, k.port, k.transport) }
