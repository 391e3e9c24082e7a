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

// Batch sends a run of discovery probes at one clock reading — the probes
// of one scheduling tick, which the simulated clock never moves across. It
// counts its probes itself and adds them to ProbesSeen once, in Flush: a
// loop of a million probes into dead space costs a million table loads and
// nothing shared. Everything else a probe meets is the one path chain
// (path.go), exactly as a single probe meets it. A Batch belongs to one
// serial probe loop; flush it before anything can read ProbesSeen
// (ConnectName does).
type Batch struct {
	n   *Internet
	now time.Time
	el  time.Duration // now's time since the epoch
	// clocked is false until the batch has read the clock: a batch of one
	// (ProbeTCP, ProbeUDP) reads it only if its probe reaches a host.
	clocked bool
	sent    uint64 // probes not yet added to probesSeen
}

// Batch starts a run of probes sent at now.
func (n *Internet) Batch(now time.Time) Batch {
	return Batch{n: n, now: now, el: now.Sub(n.epoch), clocked: true}
}

// Flush adds the batch's probes to ProbesSeen.
func (b *Batch) Flush() {
	b.n.probesSeen.Add(b.sent)
	b.sent = 0
}

// host counts one probe to address a and returns the host there, or nil
// for dead space and addresses outside the universe.
func (b *Batch) host(a uint32) *Host {
	b.sent++
	if i := a - b.n.base; i < uint32(len(b.n.hosts)) {
		return b.n.hosts[i]
	}
	return nil
}

// path runs the path chain for a discovery probe from sc to host address a.
func (b *Batch) path(sc *Scanner, a uint32) bool {
	if !b.clocked {
		b.now, b.clocked = b.n.clock.Now(), true
		b.el = b.now.Sub(b.n.epoch)
	}
	return b.n.pathOK(*sc, a, OpProbe, b.now, b.el)
}

// TCP performs one stateless TCP SYN probe from sc to address a
// (draw.AddrU32's form) and reports the outcome.
func (b *Batch) TCP(sc *Scanner, a uint32, port uint16) Outcome {
	h := b.host(a)
	if h == nil {
		// Dead address space never answers; skip the path model entirely.
		// (Dead-space probes also don't feed the blocking counters — a
		// deliberate simplification that keeps 65K background sweeps of a
		// mostly-empty universe cheap: one table load, never pathMu.)
		return Dropped
	}
	if !b.path(sc, a) {
		return Dropped
	}
	if h.Pseudo || h.Tarpit {
		return Open // pseudo-hosts and tarpits accept on every port
	}
	for _, s := range h.Slots {
		if s.Port == port && s.Transport == entity.TCP && s.AliveAt(b.n.epoch, b.now) {
			return Open
		}
	}
	return Closed
}

// UDP sends a protocol-specific UDP probe payload to address a and returns
// the service's reply, if any. UDP has no "closed" signal: silence is the
// only failure mode, exactly the ambiguity real UDP scanning faces.
func (b *Batch) UDP(sc *Scanner, a uint32, port uint16, payload []byte) ([]byte, Outcome) {
	h := b.host(a)
	if h == nil || h.Pseudo || h.Tarpit {
		return nil, Dropped // dead space / pseudo-hosts / tarpits (TCP phenomena)
	}
	if !b.path(sc, a) {
		return nil, Dropped
	}
	for _, s := range h.Slots {
		if s.Port == port && s.Transport == entity.UDP && s.AliveAt(b.n.epoch, b.now) {
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

// ProbeTCP performs one stateless TCP SYN probe and reports the outcome: a
// Batch of one, which reads the clock only if the probe reaches a host.
func (n *Internet) ProbeTCP(sc Scanner, addr netip.Addr, port uint16) Outcome {
	if !addr.Is4() {
		n.probesSeen.Add(1) // no universe holds it
		return Dropped
	}
	b := Batch{n: n}
	out := b.TCP(&sc, draw.AddrU32(addr), port)
	b.Flush()
	return out
}

// ProbeUDP sends one UDP probe (Batch.UDP) as a Batch of one.
func (n *Internet) ProbeUDP(sc Scanner, addr netip.Addr, port uint16, payload []byte) ([]byte, Outcome) {
	if !addr.Is4() {
		n.probesSeen.Add(1) // no universe holds it
		return nil, Dropped
	}
	b := Batch{n: n}
	resp, out := b.UDP(&sc, draw.AddrU32(addr), port, payload)
	b.Flush()
	return resp, out
}

// Connect opens an application-layer connection to the service at
// (addr, port), as interrogation does after discovery. ok is false when the
// path fails or no live service listens there.
func (n *Internet) Connect(sc Scanner, addr netip.Addr, port uint16, transport entity.Transport) (io.ReadWriter, bool) {
	n.probesSeen.Add(1)
	h := n.HostAt(addr)
	if h == nil {
		return nil, false
	}
	now := n.clock.Now()
	if !n.pathOK(sc, draw.AddrU32(addr), OpConnect, now, now.Sub(n.epoch)) {
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
	now := n.clock.Now()
	if site == nil || now.Before(site.Birth) || len(site.Addrs) == 0 {
		return nil, false
	}
	if port != 0 && port != 443 {
		return nil, false
	}
	addr := site.Addrs[int(n.probesSeen.Add(1)-1)%len(site.Addrs)]
	if !n.pathOK(sc, draw.AddrU32(addr), OpConnectName, now, now.Sub(n.epoch)) {
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
