package core

import (
	"hash/fnv"
	"net/netip"
	"sort"
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
// byte-identical fingerprint. The detector exploits exactly that. Every
// verified ICS record contributes a (net24, port, fingerprint) observation;
// when one key accumulates HoneypotUniformityThreshold distinct hosts, the
// whole group is flagged and retired from the dataset, like pseudo-hosts.
//
// Determinism: workers only append observations to their shard-local buffer;
// the merge — and any flagging it triggers — runs serially after each batch
// in shard-index order, so the set of flagged hosts is a function of which
// observations the batch produced, never of worker interleaving. The
// accumulator and the flag set are checkpointed in canonical order and
// restored on resume, so detection progress survives a crash bit-identically.

// farmKey identifies one uniformity group: a /24, a port, and a fingerprint.
type farmKey struct {
	net  netip.Addr
	port uint16
	fp   uint64
}

// fpObservation is one shard-buffered verified-ICS sighting.
type fpObservation struct {
	addr netip.Addr
	port uint16
	fp   uint64
}

// fpHash fingerprints a service presentation: protocol identity plus the
// exact banner bytes. FNV-64a, stable across runs and platforms.
func fpHash(protocol, banner string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(protocol))
	h.Write([]byte{0})
	h.Write([]byte(banner))
	return h.Sum64()
}

// observeFingerprint buffers a uniformity observation for a verified ICS
// service. Appending to the shard buffer is safe without the lock: only the
// owning worker touches it during a batch.
func (m *Map) observeFingerprint(s *stateShard, addr netip.Addr, port uint16, svc *entity.Service) {
	if m.cfg.HoneypotUniformityThreshold <= 0 || svc == nil || !svc.Verified {
		return
	}
	p := protocols.Lookup(svc.Protocol)
	if p == nil || !p.ICS {
		return
	}
	s.fpObs = append(s.fpObs, fpObservation{addr: addr, port: port,
		fp: fpHash(svc.Protocol, svc.Banner)})
}

// mergeFarmObservations drains every shard's fingerprint buffer into the
// global accumulator and flags groups that cross the uniformity threshold.
// Runs serially after each batch, in shard-index order.
func (m *Map) mergeFarmObservations(now time.Time) {
	if m.farmSeen == nil {
		return
	}
	threshold := m.cfg.HoneypotUniformityThreshold
	for _, s := range m.shards {
		for _, o := range s.fpObs {
			key := farmKey{net: draw.Net24(o.addr), port: o.port, fp: o.fp}
			set := m.farmSeen[key]
			if set == nil {
				set = make(map[netip.Addr]bool)
				m.farmSeen[key] = set
			}
			set[o.addr] = true
			if len(set) < threshold {
				continue
			}
			// Uniformity proven: flag every member, in canonical order.
			members := make([]netip.Addr, 0, len(set))
			for a := range set {
				members = append(members, a)
			}
			sort.Slice(members, func(i, j int) bool { return members[i].Less(members[j]) })
			for _, a := range members {
				m.markHoneypot(a, now)
			}
		}
		s.fpObs = s.fpObs[:0]
	}
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

// FarmSeenEntry is one uniformity-accumulator group's checkpointed state.
type FarmSeenEntry struct {
	Net   netip.Addr   `json:"net"`
	Port  uint16       `json:"port"`
	FP    uint64       `json:"fp"`
	Addrs []netip.Addr `json:"addrs"`
}

// farmSeenState serializes the accumulator in canonical order.
func (m *Map) farmSeenState() []FarmSeenEntry {
	if len(m.farmSeen) == 0 {
		return nil
	}
	out := make([]FarmSeenEntry, 0, len(m.farmSeen))
	for key, set := range m.farmSeen {
		e := FarmSeenEntry{Net: key.net, Port: key.port, FP: key.fp}
		for a := range set {
			e.Addrs = append(e.Addrs, a)
		}
		sort.Slice(e.Addrs, func(i, j int) bool { return e.Addrs[i].Less(e.Addrs[j]) })
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Net != b.Net {
			return a.Net.Less(b.Net)
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		return a.FP < b.FP
	})
	return out
}

// restoreFarmSeen rebuilds the accumulator from a checkpoint.
func (m *Map) restoreFarmSeen(entries []FarmSeenEntry) {
	if len(entries) == 0 {
		return
	}
	if m.farmSeen == nil {
		m.farmSeen = make(map[farmKey]map[netip.Addr]bool, len(entries))
	}
	for _, e := range entries {
		set := make(map[netip.Addr]bool, len(e.Addrs))
		for _, a := range e.Addrs {
			if m.quarantinedAddr(a) {
				continue
			}
			set[a] = true
		}
		if len(set) > 0 {
			m.farmSeen[farmKey{net: e.Net, port: e.Port, fp: e.FP}] = set
		}
	}
}
