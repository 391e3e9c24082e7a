package simnet

import (
	"sort"
	"time"

	"censysmap/internal/draw"
	"censysmap/internal/entity"
	"censysmap/internal/protocols"
)

// AdversaryConfig describes the hostile network: parts of the synthetic
// Internet that actively fight the scanner (farms, tarpits, detectors,
// churn) and the fault mix on the path to it (loss, bursts, storms, blocks,
// timeouts). The zero value is fully benign and leaves universe generation
// byte-identical to a config without an adversary. All hostile behavior is a
// pure function of (Config.Seed, Seed, stable identifiers), so one seed is
// one hostile schedule under any Shards × InterroWorkers layout.
type AdversaryConfig struct {
	// Seed perturbs the adversary draws independently of the universe seed.
	// The fault draws key on it alone, so a fault schedule does not move
	// with the universe.
	Seed uint64

	// HoneypotFarms is the number of /24 blocks converted into honeypot
	// farms: densely populated hosts that all present the same ICS identity
	// on the protocol's default port. The telltale is the uniformity — real
	// ICS devices never deploy 200-to-a-/24 with identical banners.
	HoneypotFarms int
	// FarmDensity is the fraction of each farm /24 populated with honeypots
	// (default 0.94 when farms are enabled).
	FarmDensity float64

	// TarpitRate is the fraction of ordinary hosts replaced by tarpits:
	// endpoints that accept TCP on every port and then stall (no bytes) or
	// drip (one junk byte per read, forever). Their real services become
	// unreachable.
	TarpitRate float64
	// TarpitDripRate is the fraction of tarpits that drip bytes instead of
	// stalling silently.
	TarpitDripRate float64

	// DetectorRate is the fraction of /24 networks running scan detection.
	// A detector counts probes (discovery traffic) per scanner per day;
	// exceeding DetectorThreshold triggers a block whose duration doubles
	// with each repeat offense (escalating per-scanner blocking).
	DetectorRate float64
	// DetectorThreshold is the per-scanner, per-/24, per-day probe budget a
	// detector tolerates before blocking. Unlike Config.BlockThreshold it is
	// absolute (not scaled by the scanner's source-IP pool): detectors see
	// aggregate traffic to their network.
	DetectorThreshold int
	// DetectorBaseBlock is the first block's duration (default 6h); each
	// repeat offense doubles it, capped at DetectorMaxBlock (default 7d).
	DetectorBaseBlock time.Duration
	DetectorMaxBlock  time.Duration

	// BannerChurnRate is the fraction of ordinary hosts whose services
	// rotate their fingerprint (vendor/product/version/banner) every
	// BannerChurnPeriod while keeping the protocol stable — the record a
	// scanner holds goes stale even though the service never moves.
	BannerChurnRate float64
	// BannerChurnPeriod is the fingerprint rotation period (default 24h).
	BannerChurnPeriod time.Duration

	// The fault mix: the path chain's injected-fault layer (path.go). All
	// are probabilities in [0, 1], and none changes the universe.
	//
	// FaultLoss is extra uniform per-packet loss, on top of Config.BaseLoss.
	FaultLoss float64
	// FaultBurstRate is the probability that a given (scanner, address,
	// six-hour window) is inside a correlated loss burst; while inside one,
	// each packet drops with probability FaultBurstLoss.
	FaultBurstRate float64
	FaultBurstLoss float64
	// FaultStormRate is the probability that a given (/24, hour) suffers a
	// transient outage storm dropping all traffic to the network.
	FaultStormRate float64
	// FaultBlockRate is the probability that a given (scanner, /24, day)
	// blocks the scanner for the whole day, however little it sends.
	FaultBlockRate float64
	// FaultTimeoutRate drops interrogation connections only (discovery
	// probes pass): handshake timeouts after a successful SYN scan.
	FaultTimeoutRate float64
}

// Enabled reports whether the substrate is hostile: whether any farm,
// tarpit, detector or churn is configured. The fault mix alone leaves the
// substrate benign.
func (a AdversaryConfig) Enabled() bool {
	return a.HoneypotFarms > 0 || a.TarpitRate > 0 || a.DetectorRate > 0 || a.BannerChurnRate > 0
}

func (a AdversaryConfig) farmDensity() float64 {
	if a.FarmDensity > 0 {
		return a.FarmDensity
	}
	return 0.94
}

func (a AdversaryConfig) churnPeriod() time.Duration {
	if a.BannerChurnPeriod > 0 {
		return a.BannerChurnPeriod
	}
	return 24 * time.Hour
}

func (a AdversaryConfig) baseBlock() time.Duration {
	if a.DetectorBaseBlock > 0 {
		return a.DetectorBaseBlock
	}
	return 6 * time.Hour
}

func (a AdversaryConfig) maxBlock() time.Duration {
	if a.DetectorMaxBlock > 0 {
		return a.DetectorMaxBlock
	}
	return 7 * 24 * time.Hour
}

// farmProtocols are the ICS identities honeypot farms imitate. All default
// ports are in the discovery priority class, so every engine profile finds
// the farms quickly — which is the point of the mislabeling experiment.
var farmProtocols = []string{
	"MODBUS", "S7", "DNP3", "BACNET", "FINS",
	"FOX", "EIP", "IEC104", "ATG", "CODESYS",
}

// generateAdversary runs after ordinary host generation and applies the
// hostile overlays. It uses its own mix tags and never touches the benign
// draw sequences, so enabling an adversary changes only what it adds.
func (n *Internet) generateAdversary() {
	a := n.cfg.Adversary
	if !a.Enabled() {
		return
	}
	seed := draw.Mix(n.cfg.Seed, 0xAD5E, a.Seed)
	n.advSeed = seed

	blocks := max(uint32(len(n.hosts))>>8, 1) // sub-/24 universes: the whole prefix is one "block"

	// Honeypot farms: distinct non-cloud /24s, one shared identity per farm.
	if a.HoneypotFarms > 0 {
		taken := map[uint32]bool{}
		for f := 0; f < a.HoneypotFarms && f < int(blocks); f++ {
			var blk uint32
			for try := uint64(0); ; try++ {
				blk = uint32(draw.Mix(seed, 0xFA23, uint64(f), try) % uint64(blocks))
				if !taken[blk] && int(blk) >= n.cfg.CloudBlocks {
					break
				}
				if try > 256 {
					break // tiny universe: accept whatever is left
				}
			}
			if taken[blk] {
				continue
			}
			taken[blk] = true
			n.buildFarm(f, blk<<8)
		}
		sort.Slice(n.addrs, func(i, j int) bool {
			return draw.AddrU32(n.addrs[i]) < draw.AddrU32(n.addrs[j])
		})
	}

	// Tarpits and banner churn overlay ordinary hosts. Draws key on the
	// address offset so flags are independent of map iteration order.
	if a.TarpitRate > 0 || a.BannerChurnRate > 0 {
		for _, addr := range n.addrs {
			h := n.HostAt(addr)
			if h.Honeypot || h.Pseudo {
				continue
			}
			off := uint64(draw.AddrU32(addr) - n.base)
			if a.TarpitRate > 0 && draw.Frac(draw.Mix(seed, 0x7A99, off)) < a.TarpitRate {
				h.Tarpit = true
				h.TarpitDrip = draw.Frac(draw.Mix(seed, 0x7A9A, off)) < a.TarpitDripRate
				continue // a tarpit masks everything else on the host
			}
			if a.BannerChurnRate > 0 && draw.Frac(draw.Mix(seed, 0xC49B, off)) < a.BannerChurnRate {
				h.BannerChurn = true
			}
		}
	}
}

// buildFarm populates one /24 with honeypots sharing a single ICS identity;
// blockOff is the block's offset in the universe.
func (n *Internet) buildFarm(farm int, blockOff uint32) {
	a := n.cfg.Adversary
	proto := farmProtocols[int(draw.Mix(n.advSeed, 0xFA24, uint64(farm))%uint64(len(farmProtocols)))]
	p := protocols.Lookup(proto)
	if p == nil || len(p.DefaultPorts) == 0 {
		return
	}
	port := p.DefaultPorts[0]
	spec := pickCatalog(proto, draw.Mix(n.advSeed, 0xFA26, uint64(farm)))
	spec.Protocol = proto
	country := pickCountry(draw.Mix(n.advSeed, 0xFA27, uint64(farm)))
	asn := 64900 + uint32(draw.Mix(n.advSeed, 0xFA28, uint64(farm))%90)
	density := a.farmDensity()

	for i := uint32(0); i < 256 && blockOff+i < uint32(len(n.hosts)); i++ {
		if draw.Frac(draw.Mix(n.advSeed, 0xFA25, uint64(farm), uint64(i))) >= density {
			continue
		}
		n.AddHost(&Host{
			Addr:     draw.U32Addr(n.base + blockOff + i),
			Country:  country,
			ASN:      asn,
			ASOrg:    "Farm Hosting Ltd",
			Honeypot: true,
			Farm:     farm,
			Slots: []*Slot{{
				Port:      port,
				Transport: entity.TCP,
				Spec:      spec,
				Birth:     n.epoch.Add(-30 * 24 * time.Hour),
			}},
		})
	}
}

// churnSpec rotates a banner-churn host's fingerprint for the current churn
// generation. The protocol (and any TLS identity) is preserved — only the
// vendor/product/version/banner surface rotates, so labels stay correct but
// stored records go stale.
func (n *Internet) churnSpec(h *Host, s *Slot, now time.Time) protocols.Spec {
	period := n.cfg.Adversary.churnPeriod()
	gen := uint64(now.Sub(n.epoch) / period)
	rotated := pickCatalog(s.Spec.Protocol,
		draw.Mix(n.advSeed, 0xC4A7, uint64(draw.AddrU32(h.Addr)), uint64(s.Port), gen))
	rotated.Protocol = s.Spec.Protocol
	rotated.TLS = s.Spec.TLS
	rotated.CertDER = s.Spec.CertDER
	rotated.CertSHA256 = s.Spec.CertSHA256
	return rotated
}

// ChurnGeneration returns the fingerprint generation banner-churn hosts are
// presenting at time t.
func (n *Internet) ChurnGeneration(t time.Time) uint64 {
	return uint64(t.Sub(n.epoch) / n.cfg.Adversary.churnPeriod())
}

// detectorAt reports whether the /24 with base address net runs a scan
// detector — a pure function of the seed.
func (n *Internet) detectorAt(netID uint64) bool {
	a := n.cfg.Adversary
	if a.DetectorRate <= 0 {
		return false
	}
	return draw.Frac(draw.Mix(n.advSeed, 0xDE7C, netID)) < a.DetectorRate
}

// TarpitConn is the scanner-side view of a tarpit endpoint. A stalling
// tarpit never delivers a byte (every read times out); a dripping tarpit
// delivers exactly one deterministic junk byte per read, forever. Writes are
// swallowed. Real tarpits wedge scanners by consuming wall-clock; here the
// cost is charged as virtual time through the interrogator's deadline
// budgets (see ReadDelay).
type TarpitConn struct {
	drip  bool
	seed  uint64
	reads uint64
}

func (c *TarpitConn) Read(p []byte) (int, error) {
	c.reads++
	if !c.drip || len(p) == 0 {
		return 0, protocols.ErrTimeout
	}
	p[0] = byte('a' + draw.Mix(c.seed, c.reads)%26)
	return 1, nil
}

func (c *TarpitConn) Write(p []byte) (int, error) { return len(p), nil }

// ReadDelay reports the simulated wall-clock cost a real scanner would pay
// per successful read from this endpoint — tarpits drip slowly on purpose.
func (c *TarpitConn) ReadDelay() time.Duration {
	if c.drip {
		return 800 * time.Millisecond
	}
	return 0
}

// AdversaryStats summarizes the hostile substrate (static after generation).
type AdversaryStats struct {
	Farms         int
	HoneypotHosts int
	TarpitHosts   int
	DripTarpits   int
	ChurnHosts    int
	DetectorNets  int
}

// AdversaryStats counts the adversarial host population and detector nets.
func (n *Internet) AdversaryStats() AdversaryStats {
	var st AdversaryStats
	farms := map[int]bool{}
	for _, a := range n.addrs {
		h := n.HostAt(a)
		switch {
		case h.Honeypot:
			st.HoneypotHosts++
			farms[h.Farm] = true
		case h.Tarpit:
			st.TarpitHosts++
			if h.TarpitDrip {
				st.DripTarpits++
			}
		case h.BannerChurn:
			st.ChurnHosts++
		}
	}
	st.Farms = len(farms)
	if n.cfg.Adversary.DetectorRate > 0 {
		for blk := range max(uint32(len(n.hosts))>>8, 1) {
			if n.detectorAt(uint64(n.base&^0xFF + blk<<8)) {
				st.DetectorNets++
			}
		}
	}
	return st
}
