package core

import (
	"cmp"
	"hash/fnv"
	"maps"
	"net/netip"
	"slices"
	"time"

	"censysmap/internal/draw"
	"censysmap/internal/entity"
	"censysmap/internal/protocols"
)

// Honeypot-farm detection (see DESIGN.md, "Adversarial scenarios").
//
// Honeypot farms deploy whole /24s of hosts presenting the same ICS banner —
// convincing individually, but with a telltale uniformity no real deployment
// has: dozens of "devices" in one network answering the same port with a
// byte-identical fingerprint. The detector asks the write side for exactly
// that. Every verified ICS observation a batch applies touches its group
// (its /24, slot and fingerprint); after the batch, each touched group is
// counted in the write side's current state — the hosts of the /24 whose
// record in the slot is verified and carries the fingerprint. A group of
// HoneypotUniformityThreshold hosts is flagged whole and retired from the
// dataset, like pseudo-hosts, and its key is remembered, so a member found
// later is flagged on sight. A host whose record left the write side no
// longer counts: churn within a /24 cannot add up to a farm.
//
// Determinism: workers only append the groups they touch to their
// shard-local buffer; the query runs serially after each batch, counts every
// touched group before flagging any, and flags in address order, so the flag
// set is a function of the batch's observations and the write side, never of
// worker interleaving or layout. The flagged groups are checkpointed in
// canonical order and restored on resume.

// FarmGroup identifies one uniformity group: a /24, a service slot and a
// fingerprint.
type FarmGroup struct {
	Net       netip.Addr       `json:"net"`
	Port      uint16           `json:"port"`
	Transport entity.Transport `json:"transport"`
	FP        uint64           `json:"fp"`
}

// fpObservation is one shard-buffered verified-ICS record.
type fpObservation struct {
	addr  netip.Addr
	group FarmGroup
}

// icsGroup reports the uniformity group a record joins: only verified ICS
// records join one. The fingerprint is protocol identity plus the exact
// banner bytes, FNV-64a, stable across runs and platforms.
func icsGroup(addr netip.Addr, svc *entity.Service) (FarmGroup, bool) {
	if svc == nil || !svc.Verified {
		return FarmGroup{}, false
	}
	if p := protocols.Lookup(svc.Protocol); p == nil || !p.ICS {
		return FarmGroup{}, false
	}
	h := fnv.New64a()
	h.Write([]byte(svc.Protocol + "\x00" + svc.Banner))
	return FarmGroup{Net: draw.Net24(addr), Port: svc.Port, Transport: svc.Transport, FP: h.Sum64()}, true
}

// flagFarms counts, in the write side, every group the batch touched and
// flags the groups that reach the uniformity threshold, plus each observed
// member of a group flagged before. Runs serially after each batch.
func (m *Map) flagFarms(now time.Time) {
	var flag []netip.Addr
	counted := map[FarmGroup]bool{}
	for _, s := range m.shards {
		for _, o := range s.fpObs {
			switch {
			case m.farmGroups[o.group]:
				flag = append(flag, o.addr) // on sight
			case !counted[o.group]:
				counted[o.group] = true
				if members := m.farmMembers(o.group); len(members) >= m.cfg.HoneypotUniformityThreshold {
					m.farmGroups[o.group] = true
					flag = append(flag, members...)
				}
			}
		}
		s.fpObs = s.fpObs[:0]
	}
	slices.SortFunc(flag, netip.Addr.Compare)
	for _, a := range slices.Compact(flag) {
		m.markHoneypot(a, now)
	}
}

// farmMembers lists, in address order, the hosts of g's /24 whose current
// record in g's slot is verified and carries g's fingerprint.
func (m *Map) farmMembers(g FarmGroup) []netip.Addr {
	key := entity.ServiceKey{Port: g.Port, Transport: g.Transport}
	var members []netip.Addr
	b := g.Net.As4()
	for i := range 256 {
		b[3] = byte(i)
		addr := netip.AddrFrom4(b)
		if svc, held := m.processor.Record(addr.String(), key); held {
			if in, ok := icsGroup(addr, &svc); ok && in == g {
				members = append(members, addr)
			}
		}
	}
	return members
}

// markHoneypot flags a host as a honeypot and retires its services from the
// dataset, like the pseudo filter does. Idempotent.
func (m *Map) markHoneypot(addr netip.Addr, now time.Time) {
	if !m.suppress(addr, flagHoneypot, now) {
		return
	}
	m.honeypotsFlagged.Add(1)
	if m.tracer.Hit(addr) {
		m.traceEvent(addr, "honeypot", "flagged", now)
	}
}

// farmGroupList lists the flagged groups in canonical order (checkpoint).
func (m *Map) farmGroupList() []FarmGroup {
	return slices.SortedFunc(maps.Keys(m.farmGroups), func(a, b FarmGroup) int {
		return cmp.Or(a.Net.Compare(b.Net), cmp.Compare(a.Port, b.Port),
			cmp.Compare(a.Transport, b.Transport), cmp.Compare(a.FP, b.FP))
	})
}
