package simnet

import (
	"io"
	"net/netip"
	"time"

	"censysmap/internal/draw"
	"censysmap/internal/entity"
	"censysmap/internal/protocols"
)

// Scanner identifies a probing engine to the network. Networks react to
// scanners: per-source-IP probe rates above the blocking threshold get the
// scanner blocked, so an engine that concentrates traffic on few source IPs
// loses coverage (paper §4.1's motivation for spreading scans over a pool).
type Scanner struct {
	// ID distinguishes engines for blocking purposes.
	ID string
	// SourceIPs is the size of the engine's source address pool.
	SourceIPs int
	// Country is where the engine's vantage point sits (geoblocking).
	Country string
	// BlockedFrac is the fraction of /24 networks that blocklist this
	// scanner outright — operator reputation. Widely-blocked engines lose
	// coverage even on popular ports.
	BlockedFrac float64
}

// Outcome classifies an L4 probe result.
type Outcome int

// Probe outcomes.
const (
	Dropped Outcome = iota // no response: dead host, filtered, lost, blocked
	Open                   // SYN-ACK (or UDP reply)
	Closed                 // RST
)

// ProbeTCP performs one stateless TCP SYN probe and reports the outcome.
func (n *Internet) ProbeTCP(sc Scanner, addr netip.Addr, port uint16) Outcome {
	h := n.HostAt(addr)
	if h == nil {
		// Dead address space never answers; skip the path model entirely.
		// (Dead-space probes also don't feed the blocking counters — a
		// deliberate simplification that keeps 65K background sweeps of a
		// mostly-empty universe cheap: one table load, never pathMu.)
		n.probesSeen.Add(1)
		return Dropped
	}
	now, ok := n.pathOK(sc, addr, OpProbe)
	if !ok {
		return Dropped
	}
	if h.Pseudo || h.Tarpit {
		return Open // pseudo-hosts and tarpits accept on every port
	}
	for _, s := range h.Slots {
		if s.Port == port && s.Transport == entity.TCP && s.AliveAt(n.epoch, now) {
			return Open
		}
	}
	return Closed
}

// ProbeUDP sends a protocol-specific UDP probe payload and returns the
// service's reply, if any. UDP has no "closed" signal: silence is the only
// failure mode, exactly the ambiguity real UDP scanning faces.
func (n *Internet) ProbeUDP(sc Scanner, addr netip.Addr, port uint16, payload []byte) ([]byte, Outcome) {
	h := n.HostAt(addr)
	if h == nil || h.Pseudo || h.Tarpit {
		n.probesSeen.Add(1)
		return nil, Dropped // dead space / pseudo-hosts / tarpits (TCP phenomena)
	}
	now, ok := n.pathOK(sc, addr, OpProbe)
	if !ok {
		return nil, Dropped
	}
	for _, s := range h.Slots {
		if s.Port == port && s.Transport == entity.UDP && s.AliveAt(n.epoch, now) {
			sess := protocols.NewSession(s.Spec)
			if sess == nil {
				return nil, Dropped
			}
			resp, _ := sess.Respond(payload)
			if len(resp) == 0 {
				return nil, Dropped
			}
			return resp, Open
		}
	}
	return nil, Dropped
}

// Connect opens an application-layer connection to the service at
// (addr, port), as interrogation does after discovery. ok is false when the
// path fails or no live service listens there.
func (n *Internet) Connect(sc Scanner, addr netip.Addr, port uint16, transport entity.Transport) (io.ReadWriter, bool) {
	h := n.HostAt(addr)
	if h == nil {
		n.probesSeen.Add(1)
		return nil, false
	}
	now, ok := n.pathOK(sc, addr, OpConnect)
	if !ok {
		return nil, false
	}
	if h.Pseudo {
		// Pseudo-hosts accept the TCP connection then serve an identical
		// trivial HTTP page on every port.
		if transport != entity.TCP {
			return nil, false
		}
		spec := protocols.Spec{Protocol: "HTTP", Product: "pseudo", Title: "OK"}
		return protocols.NewSessionConn(protocols.NewSession(spec)), true
	}
	if h.Tarpit {
		// Tarpits accept the TCP connection on any port, then stall or drip.
		if transport != entity.TCP {
			return nil, false
		}
		return &TarpitConn{
			drip: h.TarpitDrip,
			seed: draw.Mix(n.advSeed, 0x7A9B, uint64(draw.AddrU32(addr)), uint64(port)),
		}, true
	}
	for _, s := range h.Slots {
		if s.Port == port && s.Transport == transport && s.AliveAt(n.epoch, now) {
			spec := s.Spec
			if h.BannerChurn {
				spec = n.churnSpec(h, s, now)
			}
			sess := protocols.NewSession(spec)
			if sess == nil {
				return nil, false
			}
			return protocols.NewSessionConn(sess), true
		}
	}
	return nil, false
}

// ConnectName opens a connection to a name-addressed web property, the
// name-based scanning path (§4.3). ok is false if the name does not resolve
// or the site is not yet online.
func (n *Internet) ConnectName(sc Scanner, name string, port uint16) (io.ReadWriter, bool) {
	site := n.webProps[name]
	if site == nil || n.clock.Now().Before(site.Birth) || len(site.Addrs) == 0 {
		return nil, false
	}
	if port != 0 && port != 443 {
		return nil, false
	}
	addr := site.Addrs[int(n.probesSeen.Load())%len(site.Addrs)]
	if _, ok := n.pathOK(sc, addr, OpConnectName); !ok {
		return nil, false
	}
	if n.HostAt(addr) == nil {
		return nil, false // serving host is gone
	}
	sess := protocols.NewSession(site.Spec)
	if sess == nil {
		return nil, false
	}
	return protocols.NewSessionConn(sess), true
}

// ProbesSeen returns the total probes the network has processed.
func (n *Internet) ProbesSeen() uint64 { return n.probesSeen.Load() }

// ServiceRef is a ground-truth record of one live service.
type ServiceRef struct {
	Addr      netip.Addr
	Port      uint16
	Transport entity.Transport
	Protocol  string
	Country   string
	Cloud     bool
	Pseudo    bool
	ICS       bool
}

// LiveServices enumerates ground truth at time t. Pseudo-host "services" are
// excluded unless includePseudo is set (the paper filters them from its
// ground-truth subsample).
func (n *Internet) LiveServices(t time.Time, includePseudo bool) []ServiceRef {
	var out []ServiceRef
	for _, a := range n.addrs {
		h := n.HostAt(a)
		if h.Pseudo {
			if includePseudo {
				out = append(out, ServiceRef{Addr: a, Pseudo: true})
			}
			continue
		}
		if h.Honeypot || h.Tarpit {
			// Honeypot "services" are bait, and a tarpit masks the host's
			// real slots — neither belongs in legitimate ground truth.
			continue
		}
		for _, s := range h.Slots {
			if !s.AliveAt(n.epoch, t) {
				continue
			}
			p := protocols.Lookup(s.Spec.Protocol)
			out = append(out, ServiceRef{
				Addr: a, Port: s.Port, Transport: s.Transport,
				Protocol: s.Spec.Protocol, Country: h.Country,
				Cloud: h.Cloud, ICS: p != nil && p.ICS,
			})
		}
	}
	return out
}

// SlotAt returns the slot at (addr, port, transport) regardless of liveness,
// or nil. Evaluation uses it to distinguish "service gone" from "never was".
func (n *Internet) SlotAt(addr netip.Addr, port uint16, transport entity.Transport) *Slot {
	h := n.HostAt(addr)
	if h == nil {
		return nil
	}
	for _, s := range h.Slots {
		if s.Port == port && s.Transport == transport {
			return s
		}
	}
	return nil
}
