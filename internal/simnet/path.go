package simnet

import (
	"net/netip"
	"strings"
	"time"

	"censysmap/internal/draw"
	"censysmap/internal/telemetry"
)

// This file owns everything between a scanner and a host. A probe to a live
// address passes one ordered chain of layers; the first to return a non-zero
// Cause decides its fate, and pathOK counts it. The order and every draw key
// are frozen — one seed names one schedule of drops:
//
//	active block → rate block → scan detector → (sequence number assigned)
//	→ (observer hook) → injected fault → reputation blocklist → geoblock
//	→ outage → path loss

// Cause says which layer of the path dropped a probe; Delivered (zero) means
// none did. A block's cause counts the probe that tripped it and every probe
// it eats until it expires.
type Cause uint8

// The drop causes, in chain order.
const (
	Delivered      Cause = iota
	CauseRateBlock       // over BlockThreshold probes per source IP to the /24 today
	CauseDetector        // a scan detector's escalating block
	// The five kinds of the injected-fault layer (AdversaryConfig's fault mix).
	CauseFaultBlock
	CauseFaultStorm
	CauseFaultBurst
	CauseFaultTimeout
	CauseFaultLoss
	CauseReputation // the /24 blocklists this scanner outright
	CauseGeoblock   // the /24 drops out-of-country vantage points
	CauseOutage     // the whole /24 is down this hour
	CauseLoss       // ordinary per-packet path loss

	NumCauses
)

var causeNames = [NumCauses]string{
	"delivered", "rate_block", "detector",
	"fault_block", "fault_storm", "fault_burst", "fault_timeout", "fault_loss",
	"reputation", "geoblock", "outage", "loss",
}

// String is the cause's metric label.
func (c Cause) String() string { return causeNames[c] }

// Op classifies the network operation the path is consulted about, so a
// layer can treat discovery probes and interrogation connections differently
// (blocking counts probes only; injected timeouts hit connections only).
type Op int

// Operation kinds.
const (
	// OpProbe is a stateless discovery probe (ProbeTCP / ProbeUDP).
	OpProbe Op = iota
	// OpConnect is an application-layer interrogation connection.
	OpConnect
	// OpConnectName is a name-addressed web-property connection.
	OpConnectName
)

// FaultInjector is a hook on the path for observers: it sees every probe
// that gets past the blocking layers, immediately after the per-(scanner,
// addr) sequence number is assigned and before the injected-fault layer.
// A drop it returns consumes a sequence number exactly like natural path
// loss. The network's own faults are AdversaryConfig's fault mix, not a
// hook.
//
// Implementations must be deterministic functions of the arguments (never
// of call interleaving), and safe for concurrent use: parallel
// interrogation workers probe concurrently.
type FaultInjector interface {
	Drop(sc Scanner, addr netip.Addr, op Op, seq uint64, now time.Time) Cause
}

// SetFaultInjector installs (or removes, with nil) the observer hook on the
// network path. It must only be called while no probes are in flight —
// between runs, not mid-tick.
func (n *Internet) SetFaultInjector(f FaultInjector) { n.fault = f }

// scannerPaths is everything the network remembers about one scanner
// identity: its ID's draw hash, computed once, and one record per /24 of the
// universe, indexed by the /24's offset from the universe's first /24 and
// allocated on the first probe into it. Guarded by Internet.pathMu.
type scannerPaths struct {
	id     string
	idHash uint64
	nets   []*netPath
}

// netPath is everything the network remembers about one scanner on one /24.
// Guarded by Internet.pathMu.
type netPath struct {
	// day is the simulated day the two counters belong to; they reset when
	// it rolls over. probes counts discovery probes against the rate
	// threshold, detProbes those seen by the /24's scan detector (tripping
	// it opens a fresh window).
	day               int64
	probes, detProbes int
	// offenses is how many times the detector has blocked this scanner; each
	// doubles the next block. Never reset.
	offenses int
	// blockedTill ends the current block, as time since the epoch;
	// blockedBy is the layer that set it.
	blockedTill time.Duration
	blockedBy   Cause
	// seq is the probe ordinal per address (indexed by last octet). The
	// fault and loss draws key on it, not on a global ordinal, so a probe's
	// outcome depends only on how many times this scanner has probed this
	// address — not on how probes interleave across workers.
	seq [256]uint32
}

// pathOK reports whether a probe from sc reaches address a at now, running
// the chain and counting the cause when it does not. a is in the universe:
// only a probe to a host gets this far. el is now's time since the epoch.
// The caller counts the probe in probesSeen.
func (n *Internet) pathOK(sc Scanner, a uint32, op Op, now time.Time, el time.Duration) bool {
	c, seq, idHash := n.blocking(sc, a, op, el)
	if c == Delivered && n.fault != nil {
		c = n.fault.Drop(sc, draw.U32Addr(a), op, seq, now)
	}
	if c == Delivered && n.faulty {
		c = n.cfg.Adversary.injected(idHash, a, op, seq, now)
	}
	if c == Delivered {
		c = n.ambient(sc, idHash, a, seq, el)
	}
	if c == Delivered {
		return true
	}
	n.drops[c].Inc()
	return false
}

// pathsOf returns the table of scanner identity id, creating it on the
// identity's first probe. The last table used is cached, so a run of probes
// from one identity skips the string-keyed lookup. Called with pathMu held.
func (n *Internet) pathsOf(id string) *scannerPaths {
	if sp := n.lastScan; sp != nil && sp.id == id {
		return sp
	}
	sp := n.scanners[id]
	if sp == nil {
		nets := (n.base+uint32(len(n.hosts))-1)>>8 - n.base>>8 + 1
		sp = &scannerPaths{id: id, idHash: draw.StrHash(id), nets: make([]*netPath, nets)}
		n.scanners[id] = sp
	}
	n.lastScan = sp
	return sp
}

// blocking is the stateful head of the chain: an active block, the rate
// threshold, the scan detector. A probe that passes all three is assigned
// its sequence number. It also returns the scanner ID's draw hash for the
// stateless tail. el is the time since the epoch.
//
// Only OpProbe feeds the two counters. Discovery probing is serial in the
// pipeline, so which probe trips a block — and hence every drop the block
// causes, for every op — is a pure function of the probe schedule,
// independent of worker/shard layout. Connect traffic from parallel
// interrogation workers never advances either.
func (n *Internet) blocking(sc Scanner, a uint32, op Op, el time.Duration) (Cause, uint64, uint64) {
	n.pathMu.Lock()
	defer n.pathMu.Unlock()
	sp := n.pathsOf(sc.ID)
	i := a>>8 - n.base>>8
	p := sp.nets[i]
	if p == nil {
		p = &netPath{}
		sp.nets[i] = p
	}
	if el < p.blockedTill {
		return p.blockedBy, 0, sp.idHash
	}
	if op == OpProbe {
		if day := int64(el / (24 * time.Hour)); day != p.day {
			p.day, p.probes, p.detProbes = day, 0, 0
		}
		p.probes++
		if n.cfg.BlockThreshold > 0 && p.probes > n.cfg.BlockThreshold*max(sc.SourceIPs, 1) {
			p.blockedTill, p.blockedBy = el+n.cfg.BlockDuration, CauseRateBlock
			return CauseRateBlock, 0, sp.idHash
		}
		if adv := n.cfg.Adversary; adv.DetectorThreshold > 0 && n.detectorAt(uint64(a&^0xFF)) {
			p.detProbes++
			if p.detProbes > adv.DetectorThreshold {
				p.offenses++
				p.detProbes = 0
				dur := adv.baseBlock()
				for i := 1; i < p.offenses; i++ {
					dur *= 2
					if dur >= adv.maxBlock() {
						dur = adv.maxBlock()
						break
					}
				}
				p.blockedTill, p.blockedBy = el+dur, CauseDetector
				return CauseDetector, 0, sp.idHash
			}
		}
	}
	seq := p.seq[uint8(a)]
	p.seq[uint8(a)] = seq + 1
	return Delivered, uint64(seq), sp.idHash
}

// Draw domain tags of the injected-fault layer: each fault kind hashes in its
// own constant so the draws are independent streams of the same seed.
const (
	tagLoss = iota + 0xC4A0
	tagBurstGate
	tagBurstPkt
	tagStorm
	tagBlock
	tagTimeout
)

// hasFaults reports whether the fault mix can drop anything; pathOK skips
// the layer when it cannot.
func (f *AdversaryConfig) hasFaults() bool {
	return f.FaultLoss > 0 || f.FaultBurstRate > 0 && f.FaultBurstLoss > 0 ||
		f.FaultStormRate > 0 || f.FaultBlockRate > 0 || f.FaultTimeoutRate > 0
}

// injected is the chain's injected-fault layer: the fault mix as pure draws
// on (Seed, scanner, address or its /24, and either the sequence number or a
// clock window). The draws key on the raw Seed and the absolute clock, so a
// seed names one fault schedule over any universe and any pipeline layout.
// Widest-scope faults are consulted first so each drop is attributed to the
// dominant cause. idHash is draw.StrHash of the scanner ID.
func (f *AdversaryConfig) injected(idHash uint64, addr uint32, op Op, seq uint64, now time.Time) Cause {
	a := uint64(addr)
	n24 := a &^ 0xFF
	unix := uint64(now.Unix())
	if f.FaultBlockRate > 0 {
		day := unix / 86400
		if draw.Frac(draw.Mix(f.Seed, tagBlock, n24, idHash, day)) < f.FaultBlockRate {
			return CauseFaultBlock
		}
	}
	if f.FaultStormRate > 0 {
		hour := unix / 3600
		if draw.Frac(draw.Mix(f.Seed, tagStorm, n24, hour)) < f.FaultStormRate {
			return CauseFaultStorm
		}
	}
	if f.FaultBurstRate > 0 && f.FaultBurstLoss > 0 {
		win := unix / (6 * 3600)
		if draw.Frac(draw.Mix(f.Seed, tagBurstGate, a, idHash, win)) < f.FaultBurstRate &&
			draw.Frac(draw.Mix(f.Seed, tagBurstPkt, a, seq)) < f.FaultBurstLoss {
			return CauseFaultBurst
		}
	}
	if f.FaultTimeoutRate > 0 && op == OpConnect {
		if draw.Frac(draw.Mix(f.Seed, tagTimeout, a, idHash, seq)) < f.FaultTimeoutRate {
			return CauseFaultTimeout
		}
	}
	if f.FaultLoss > 0 {
		if draw.Frac(draw.Mix(f.Seed, tagLoss, a, idHash, seq)) < f.FaultLoss {
			return CauseFaultLoss
		}
	}
	return Delivered
}

// ambient is the stateless tail of the chain: what the network does to any
// probe, as pure draws on (seed, network, scanner, hour, sequence number).
// idHash is draw.StrHash(sc.ID); el is the time since the epoch.
func (n *Internet) ambient(sc Scanner, idHash uint64, a uint32, seq uint64, el time.Duration) Cause {
	seed := n.cfg.Seed
	net := a &^ 0xFF
	netID := uint64(net)
	// Reputation blocklists: some networks drop this scanner wholesale.
	if sc.BlockedFrac > 0 && draw.Frac(draw.Mix(seed, 0xB10C, netID, idHash)) < sc.BlockedFrac {
		return CauseReputation
	}
	// Geoblocking: a small fraction of networks drop foreign scanners.
	if draw.Frac(draw.Mix(seed, 0x6E0, netID)) < n.cfg.GeoblockRate {
		block24 := uint64(net-n.base) >> 8
		if sc.Country != pickCountry(draw.Mix(seed, 0xC0, block24)) {
			return CauseGeoblock
		}
	}
	// Transient outage: whole /24 down for this hour.
	hour := int64(el / time.Hour)
	if draw.Frac(draw.Mix(seed, 0x007, netID, uint64(hour))) < n.cfg.OutageRate {
		return CauseOutage
	}
	// Path loss: base scaled by a per-(scanner-country, /16) component so
	// vantage points see different networks differently (Wan et al.).
	// Proportional scaling keeps BaseLoss=0 a true no-loss configuration.
	net16 := uint64(a &^ 0xFFFF)
	loss := n.cfg.BaseLoss * (1 + 2*draw.Frac(draw.Mix(seed, 0x105, net16, draw.StrHash(sc.Country))))
	if draw.Frac(draw.Mix(seed, 0x10D, uint64(a), idHash, seq)) < loss {
		return CauseLoss
	}
	return Delivered
}

// AttachTelemetry exposes the drop counters on reg as
// censys_simnet_drops_total{cause=...}: the number of probes each layer of
// the path has dropped, natural and injected drops alike. It is the one
// count of what the network ate, and /v2/metrics reads it.
func (n *Internet) AttachTelemetry(reg *telemetry.Registry) {
	for c := Delivered + 1; c < NumCauses; c++ {
		reg.RegisterCounter("censys_simnet_drops_total",
			"probes dropped between scanner and host, by the path layer that dropped them",
			map[string]string{"cause": c.String()}, &n.drops[c])
	}
}

// BlockedNetworks reports how many (scanner, network) blocks are active
// across all scanner identities whose ID starts with idPrefix. Rotated
// identities ("engine+r1", "engine+r2", ...) share the prefix, so this is
// the rotation-aware accounting the eval harness reads.
func (n *Internet) BlockedNetworks(idPrefix string) int {
	el := n.clock.Now().Sub(n.epoch)
	count := 0
	n.eachPath(idPrefix, func(p *netPath) {
		if el < p.blockedTill {
			count++
		}
	})
	return count
}

// DetectorBlockEvents returns the cumulative number of detector-triggered
// blocks against scanners whose ID starts with idPrefix (rotation-aware,
// like BlockedNetworks): the sum of their paths' offense counts.
// censys_simnet_drops_total{cause="detector"} is the probes those blocks
// ate, all scanners together.
func (n *Internet) DetectorBlockEvents(idPrefix string) int {
	total := 0
	n.eachPath(idPrefix, func(p *netPath) { total += p.offenses })
	return total
}

// eachPath calls fn, under pathMu, on every record of every scanner whose ID
// starts with idPrefix.
func (n *Internet) eachPath(idPrefix string, fn func(*netPath)) {
	n.pathMu.Lock()
	defer n.pathMu.Unlock()
	for id, sp := range n.scanners {
		if !strings.HasPrefix(id, idPrefix) {
			continue
		}
		for _, p := range sp.nets {
			if p != nil {
				fn(p)
			}
		}
	}
}
