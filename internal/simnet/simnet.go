// Package simnet implements the synthetic Internet the scanning pipeline is
// evaluated against (the substitution for the real IPv4 Internet; see
// DESIGN.md). It reproduces the structural properties the paper identifies as
// the hard parts of Internet-wide scanning:
//
//   - service diffusion: a smoothly decaying port-popularity distribution
//     with a heavy tail across all 65K ports and most services on
//     non-standard ports (§2.2, Appendix B);
//   - short service lifespans: DHCP and cloud churn give many services
//     periodic on/off schedules, with dense, high-churn cloud networks;
//   - pseudo-hosts that answer on every port and distort 65K scans (§6.1);
//   - fractured visibility: per-vantage-point packet loss, transient network
//     outages, rate-triggered blocking, and a little geoblocking (§4.5);
//   - a certificate ecosystem: CAs, TLS services presenting certificates, CT
//     logs, and name-addressed web properties behind SNI (§4.3–4.4).
//
// Everything is generated deterministically from a seed, so experiments are
// reproducible bit for bit.
package simnet

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"censysmap/internal/draw"
	"censysmap/internal/entity"
	"censysmap/internal/protocols"
	"censysmap/internal/simclock"
	"censysmap/internal/telemetry"
	"censysmap/internal/x509lite"
)

// Config sizes and shapes the synthetic Internet.
type Config struct {
	// Prefix is the IPv4 universe, e.g. 10.0.0.0/16. It stands in for the
	// full address space at reduced scale.
	Prefix netip.Prefix
	// Seed drives all generation.
	Seed uint64
	// HostDensity is the fraction of addresses with a live host.
	HostDensity float64
	// PseudoHostRate is the fraction of hosts that answer on all ports.
	PseudoHostRate float64
	// CloudBlocks is how many /24 blocks form the dense high-churn "cloud"
	// region at the start of the prefix.
	CloudBlocks int
	// MeanServices is the mean number of service slots per ordinary host.
	MeanServices float64
	// ChurnFraction is the fraction of non-cloud service slots with
	// periodic on/off schedules (cloud slots always churn).
	ChurnFraction float64
	// WebProperties is how many name-addressed web properties to create.
	WebProperties int
	// BaseLoss is the per-probe drop probability before per-path effects.
	BaseLoss float64
	// OutageRate is the per-network, per-hour probability of a full
	// transient outage.
	OutageRate float64
	// GeoblockRate is the fraction of /24 networks that drop probes from
	// out-of-country vantage points.
	GeoblockRate float64
	// DeploymentPatterns is the fraction of non-cloud /24 networks whose
	// hosts draw services from a shared operator template (web stack, IoT
	// fleet, ICS cell, ...) instead of independent per-service draws. This is
	// the correlated deployment structure of §2.2 that predictive scanning
	// learns from: each template anchors on a commonly scanned port and adds
	// companion services on tail ports. 0 (the default) disables patterning
	// and leaves universe generation byte-identical to previous builds.
	DeploymentPatterns float64
	// BlockThreshold is the number of probes per source IP per /24 per day
	// beyond which the network blocks that scanner (aggressive scanning ->
	// blocking, Wan et al.).
	BlockThreshold int
	// BlockDuration is how long a triggered block lasts.
	BlockDuration time.Duration
	// Adversary configures the hostile network (honeypot farms, tarpits,
	// scan detectors, banner churn, and the fault mix on the path). The
	// zero value is fully benign; see AdversaryConfig.
	Adversary AdversaryConfig
}

// DefaultConfig returns the universe used by the experiment harness: a /16
// standing in for IPv4.
func DefaultConfig() Config {
	return Config{
		Prefix:         netip.MustParsePrefix("10.0.0.0/16"),
		Seed:           1,
		HostDensity:    0.10,
		PseudoHostRate: 0.002,
		CloudBlocks:    24,
		MeanServices:   1.9,
		ChurnFraction:  0.35,
		WebProperties:  600,
		BaseLoss:       0.015,
		OutageRate:     0.004,
		GeoblockRate:   0.02,
		BlockThreshold: 60_000,
		BlockDuration:  7 * 24 * time.Hour,
	}
}

// Internet is the synthetic Internet.
type Internet struct {
	cfg   Config
	clock simclock.Clock
	epoch time.Time

	// hosts is the host table, indexed by address − base over the universe
	// prefix; nil is "no host". A probe into dead space costs one bounds
	// check and one load.
	base  uint32
	hosts []*Host
	addrs []netip.Addr // sorted host addresses for iteration

	// Certificate ecosystem.
	trustedCAs []*x509lite.CA
	CT         *x509lite.CTLog

	webProps map[string]*WebSite // keyed by name

	// The path model (path.go): one table of per-/24 records per scanner
	// identity under pathMu (parallel interrogation workers probe
	// concurrently), the last table a probe used, the optional observer
	// hook (written only between runs), and the drop counters by Cause,
	// striped by address.
	pathMu   sync.Mutex
	scanners map[string]*scannerPaths
	lastScan *scannerPaths
	fault    FaultInjector
	faulty   bool // the scenario's fault mix can drop a probe; fixed at New
	drops    [NumCauses]telemetry.Counter

	// advSeed seeds the adversary draws (adversary.go); fixed at generation.
	advSeed uint64

	// Stats counters.
	probesSeen atomic.Uint64
}

// Host is one simulated host.
type Host struct {
	Addr    netip.Addr
	Country string
	ASN     uint32
	ASOrg   string
	Cloud   bool
	Pseudo  bool
	Slots   []*Slot

	// Adversarial roles (see AdversaryConfig). At most one of Honeypot,
	// Tarpit, BannerChurn is set per host.
	Honeypot    bool
	Farm        int // farm index when Honeypot
	Tarpit      bool
	TarpitDrip  bool
	BannerChurn bool
}

// Slot is one service slot on a host: a (port, transport) location with a
// protocol spec and an on/off schedule.
type Slot struct {
	Port      uint16
	Transport entity.Transport
	Spec      protocols.Spec
	// Birth is when the service first exists; before it the slot is dead.
	Birth time.Time
	// Period/Duty define the churn schedule. Period 0 means always on.
	Period time.Duration
	Duty   float64
	Phase  time.Duration
}

// AliveAt reports whether the slot's service is up at time t.
func (s *Slot) AliveAt(epoch, t time.Time) bool {
	if t.Before(s.Birth) {
		return false
	}
	if s.Period == 0 {
		return true
	}
	off := (t.Sub(epoch) + s.Phase) % s.Period
	return float64(off) < s.Duty*float64(s.Period)
}

// WebSite is a name-addressed web property in the synthetic Internet.
type WebSite struct {
	Name  string
	Addrs []netip.Addr // hosts serving the name (via SNI/Host)
	Spec  protocols.Spec
	Cert  *x509lite.Certificate
	// Birth is when the site comes online.
	Birth time.Time
}

// New generates a synthetic Internet.
func New(cfg Config, clock simclock.Clock) *Internet {
	if cfg.Prefix.Bits() == 0 || !cfg.Prefix.Addr().Is4() {
		panic("simnet: config requires an IPv4 prefix")
	}
	n := &Internet{
		cfg:      cfg,
		clock:    clock,
		epoch:    clock.Now(),
		base:     draw.AddrU32(cfg.Prefix.Masked().Addr()),
		hosts:    make([]*Host, 1<<(32-cfg.Prefix.Bits())),
		webProps: make(map[string]*WebSite),
		scanners: make(map[string]*scannerPaths),
		CT:       &x509lite.CTLog{},
		faulty:   cfg.Adversary.hasFaults(),
	}
	n.buildPKI()
	n.generateHosts()
	n.generateAdversary()
	n.generateWebProperties()
	return n
}

// Clock returns the clock the Internet runs on.
func (n *Internet) Clock() simclock.Clock { return n.clock }

// Epoch returns the simulation start time.
func (n *Internet) Epoch() time.Time { return n.epoch }

// Config returns the generation parameters.
func (n *Internet) Config() Config { return n.cfg }

func (n *Internet) buildPKI() {
	start := n.epoch.Add(-5 * 365 * 24 * time.Hour)
	life := 15 * 365 * 24 * time.Hour
	n.trustedCAs = []*x509lite.CA{
		x509lite.NewCA("Sim Trust Services CA", draw.Mix(n.cfg.Seed, 0xCA, 1), start, life),
		x509lite.NewCA("Let's Simulate Authority X1", draw.Mix(n.cfg.Seed, 0xCA, 2), start, life),
	}
}

// trustedCA returns one of the browser-trusted CAs, chosen by i.
func (n *Internet) trustedCA(i int) *x509lite.CA {
	idx := i % len(n.trustedCAs)
	if idx < 0 {
		idx += len(n.trustedCAs)
	}
	return n.trustedCAs[idx]
}

// generateHosts populates the universe deterministically.
func (n *Internet) generateHosts() {
	for off := range uint32(len(n.hosts)) {
		if draw.Frac(draw.Mix(n.cfg.Seed, 0x5057, uint64(off))) >= n.cfg.HostDensity {
			continue
		}
		a := draw.U32Addr(n.base + off)
		n.hosts[off] = n.makeHost(a, off)
		n.addrs = append(n.addrs, a)
	}
}

func (n *Internet) makeHost(a netip.Addr, off uint32) *Host {
	block24 := off >> 8
	cloud := int(block24) < n.cfg.CloudBlocks
	h := &Host{
		Addr:    a,
		Country: pickCountry(draw.Mix(n.cfg.Seed, 0xC0, uint64(block24))),
		Cloud:   cloud,
		Pseudo:  draw.Frac(draw.Mix(n.cfg.Seed, 0x9D, uint64(off))) < n.cfg.PseudoHostRate,
	}
	block20 := off >> 12
	h.ASN = 64000 + uint32(draw.Mix(n.cfg.Seed, 0xA5, uint64(block20))%900)
	if cloud {
		h.ASN = 14618 // EC2-like
		h.ASOrg = "Simazon Cloud"
		h.Country = "US"
	} else {
		h.ASOrg = fmt.Sprintf("AS%d Networks", h.ASN)
	}
	if h.Pseudo {
		return h // pseudo-hosts answer everywhere; no real slots needed
	}

	used := map[uint16]bool{}
	if tmpl := n.patternFor(block24, cloud); tmpl != nil {
		// Patterned /24: the operator template decides the port set; each
		// host carries each template service independently, plus an
		// occasional off-template service so the tail stays realistic.
		for i, tp := range tmpl.ports {
			if draw.Frac(draw.Mix(n.cfg.Seed, 0xDE9, uint64(off)*16+uint64(i))) >= tp.p {
				continue
			}
			slot := n.finishSlot(off, i, cloud, h.Country, tp.port, tp.proto)
			if used[slot.Port] {
				continue
			}
			used[slot.Port] = true
			h.Slots = append(h.Slots, slot)
		}
		if draw.Frac(draw.Mix(n.cfg.Seed, 0xDEA, uint64(off))) < 0.25 {
			slot := n.makeSlot(off, len(tmpl.ports), cloud, h.Country)
			if !used[slot.Port] {
				used[slot.Port] = true
				h.Slots = append(h.Slots, slot)
			}
		}
		return h
	}

	// Number of service slots: 1 + geometric-ish; cloud hosts run more.
	mean := n.cfg.MeanServices
	if cloud {
		mean *= 1.6
	}
	slots := 1 + int(float64(draw.Mix(n.cfg.Seed, 0x51, uint64(off))%1000)/1000*2*(mean-1)+0.5)
	for i := 0; i < slots; i++ {
		slot := n.makeSlot(off, i, cloud, h.Country)
		if used[slot.Port] {
			continue
		}
		used[slot.Port] = true
		h.Slots = append(h.Slots, slot)
	}

	// Correlated deployments: web hosts often expose a management console
	// on a companion port (the co-occurrence structure predictive scanning
	// learns from — GPS-style signals exist because real deployments are
	// not independent across ports).
	const companionPort = 8006
	if !used[companionPort] {
		for _, s := range h.Slots {
			if s.Spec.Protocol != "HTTP" || (s.Port != 80 && s.Port != 443) {
				continue
			}
			if draw.Frac(draw.Mix(n.cfg.Seed, 0xC09A, uint64(off))) < 0.3 {
				mgmt := *s
				mgmt.Port = companionPort
				mgmt.Spec = pickCatalog("HTTP", draw.Mix(n.cfg.Seed, 0xC09B, uint64(off)))
				mgmt.Spec.Protocol = "HTTP"
				mgmt.Spec.Title = "Management Console"
				h.Slots = append(h.Slots, &mgmt)
			}
			break
		}
	}
	return h
}

// patternFor returns the operator template a /24 is patterned on, or nil.
// Cloud blocks keep their own identity (wide port sets, fast churn).
func (n *Internet) patternFor(block24 uint32, cloud bool) *deployTemplate {
	if cloud || n.cfg.DeploymentPatterns <= 0 {
		return nil
	}
	if draw.Frac(draw.Mix(n.cfg.Seed, 0xDEB1, uint64(block24))) >= n.cfg.DeploymentPatterns {
		return nil
	}
	return &deployTemplates[draw.Mix(n.cfg.Seed, 0xDEB2, uint64(block24))%uint64(len(deployTemplates))]
}

func (n *Internet) makeSlot(off uint32, i int, cloud bool, country string) *Slot {
	r := func(purpose uint64) uint64 { return draw.Mix(n.cfg.Seed, purpose, uint64(off)*16+uint64(i)) }
	port, onDefault := pickPort(r(0x01))
	proto := pickProtocol(r(0x02), port, onDefault)
	return n.finishSlot(off, i, cloud, country, port, proto)
}

// finishSlot builds a slot for a decided (port, protocol): spec, birth, and
// churn schedule. The draw sequence matches the old inline implementation,
// so unpatterned universes generate byte-identically.
func (n *Internet) finishSlot(off uint32, i int, cloud bool, country string, port uint16, proto string) *Slot {
	r := func(purpose uint64) uint64 { return draw.Mix(n.cfg.Seed, purpose, uint64(off)*16+uint64(i)) }
	p := protocols.Lookup(proto)
	transport := p.Transport

	spec := n.makeSpec(proto, r(0x03), country)

	slot := &Slot{Port: port, Transport: transport, Spec: spec}

	// Birth: most services predate the simulation; some appear during it.
	birthBack := time.Duration(r(0x04)%uint64(120*24)) * time.Hour
	slot.Birth = n.epoch.Add(-birthBack)

	churns := cloud || draw.Frac(r(0x05)) < n.cfg.ChurnFraction
	if churns {
		// Periods from 12 hours to ~3 weeks; cloud churns fastest.
		maxP := 21 * 24 * time.Hour
		if cloud {
			maxP = 4 * 24 * time.Hour
		}
		slot.Period = 12*time.Hour + time.Duration(r(0x06)%uint64(maxP-12*time.Hour))
		slot.Duty = 0.35 + draw.Frac(r(0x07))*0.5
		slot.Phase = time.Duration(r(0x08) % uint64(slot.Period))
	}
	return slot
}

// makeSpec draws vendor/product/version and TLS configuration for a service.
func (n *Internet) makeSpec(proto string, rnd uint64, country string) protocols.Spec {
	spec := pickCatalog(proto, rnd)
	spec.Protocol = proto

	if proto == "HTTP" && draw.Frac(draw.Mix(rnd, 0x71)) < 0.45 {
		n.addTLS(&spec, fmt.Sprintf("host-%x.sim.example", rnd%0xFFFFFF), draw.Mix(rnd, 0x72))
	}
	return spec
}

// addTLS equips a spec with TLS-lite and an issued certificate.
func (n *Internet) addTLS(spec *protocols.Spec, name string, rnd uint64) {
	var cert *x509lite.Certificate
	switch {
	case draw.Frac(draw.Mix(rnd, 1)) < 0.22: // self-signed device certs
		nm := x509lite.Name{CommonName: name}
		cert = &x509lite.Certificate{
			Serial: rnd | 1, Subject: nm, Issuer: nm, KeyID: rnd,
			NotBefore: n.epoch.Add(-365 * 24 * time.Hour),
			NotAfter:  n.epoch.Add(4 * 365 * 24 * time.Hour),
			DNSNames:  []string{name},
		}
		cert.Sign(rnd)
	case draw.Frac(draw.Mix(rnd, 2)) < 0.05: // expired
		ca := n.trustedCA(int(rnd))
		cert = ca.Issue(x509lite.Name{CommonName: name}, []string{name}, rnd,
			n.epoch.Add(-200*24*time.Hour), 90*24*time.Hour)
	default:
		ca := n.trustedCA(int(rnd))
		cert = ca.Issue(x509lite.Name{CommonName: name, Organization: "Sim Org"},
			[]string{name}, rnd, n.epoch.Add(-30*24*time.Hour), 90*24*time.Hour)
		// Publicly trusted certs are CT-logged; backdate submissions.
		n.ctSubmit(cert, cert.NotBefore)
	}
	spec.TLS = true
	spec.CertDER = cert.Encode()
	spec.CertSHA256 = cert.FingerprintSHA256()
}

// generateWebProperties creates name-addressed HTTPS sites served by hosts
// in the universe, discoverable via CT logs, redirects, and passive DNS.
func (n *Internet) generateWebProperties() {
	if len(n.addrs) == 0 {
		return
	}
	for i := 0; i < n.cfg.WebProperties; i++ {
		r := draw.Mix(n.cfg.Seed, 0x3EB, uint64(i))
		name := fmt.Sprintf("app%d.sim%d.example", i, r%40)
		site := &WebSite{Name: name, Birth: n.epoch.Add(-time.Duration(r%uint64(90*24)) * time.Hour)}
		// Served by 1-3 hosts (CDN-ish).
		for j := uint64(0); j <= r%3; j++ {
			site.Addrs = append(site.Addrs, n.addrs[draw.Mix(r, j)%uint64(len(n.addrs))])
		}
		spec := pickCatalog("HTTP", r)
		spec.Protocol = "HTTP"
		spec.Title = fmt.Sprintf("%s — %s", siteTitle(r), name)
		ca := n.trustedCA(int(r))
		cert := ca.Issue(x509lite.Name{CommonName: name, Organization: "Sim Web Org"},
			[]string{name}, r, site.Birth, 90*24*time.Hour)
		// CT submission is what makes the name discoverable.
		n.ctSubmit(cert, site.Birth)
		site.Cert = cert
		spec.TLS = true
		spec.CertDER = cert.Encode()
		spec.CertSHA256 = cert.FingerprintSHA256()
		site.Spec = spec
		n.webProps[name] = site
	}
}

// ctSubmit appends cert to the CT log at the given submission time, clamped
// forward to the log head (CT timestamps are monotonic submission times).
func (n *Internet) ctSubmit(cert *x509lite.Certificate, at time.Time) {
	if head := n.CT.HeadTime(); at.Before(head) {
		at = head
	}
	if _, err := n.CT.Append(cert, at); err != nil {
		panic("simnet: CT append: " + err.Error())
	}
}

func siteTitle(r uint64) string {
	titles := []string{"Login", "Dashboard", "Prometheus", "Grafana", "Portal",
		"Webmail", "MOVEit Transfer", "API Gateway", "Status", "Admin"}
	return titles[r%uint64(len(titles))]
}

// index returns addr's slot in the host table; ok is false for an address
// outside the universe prefix, or one that is not IPv4.
func (n *Internet) index(addr netip.Addr) (i uint32, ok bool) {
	if !addr.Is4() {
		return 0, false
	}
	i = draw.AddrU32(addr) - n.base
	return i, i < uint32(len(n.hosts))
}

// HostAt returns the simulated host at addr, or nil.
func (n *Internet) HostAt(addr netip.Addr) *Host {
	if i, ok := n.index(addr); ok {
		return n.hosts[i]
	}
	return nil
}

// Hosts returns the number of live hosts.
func (n *Internet) Hosts() int { return len(n.addrs) }

// Addrs returns all host addresses (shared slice; do not mutate).
func (n *Internet) Addrs() []netip.Addr { return n.addrs }

// PassiveDNS returns the subset of web property names visible in third-party
// passive DNS feeds (roughly half, deterministically chosen).
func (n *Internet) PassiveDNS() []string {
	var out []string
	for name := range n.webProps {
		if draw.Mix(n.cfg.Seed, 0xDD5, uint64(len(name)), uint64(name[3]))%2 == 0 {
			out = append(out, name)
		}
	}
	return out
}

// AddHost injects a host (e.g. a honeypot for the time-to-discovery
// experiment). Existing hosts at the address are replaced. It panics on an
// address outside the universe prefix: discovery could never sweep it.
func (n *Internet) AddHost(h *Host) {
	i, ok := n.index(h.Addr)
	if !ok {
		panic(fmt.Sprintf("simnet: AddHost %v outside the universe %v", h.Addr, n.cfg.Prefix))
	}
	if n.hosts[i] == nil {
		n.addrs = append(n.addrs, h.Addr)
	}
	n.hosts[i] = h
}

// RemoveHost deletes the host at addr.
func (n *Internet) RemoveHost(addr netip.Addr) {
	i, ok := n.index(addr)
	if !ok || n.hosts[i] == nil {
		return
	}
	n.hosts[i] = nil
	for i, a := range n.addrs {
		if a == addr {
			n.addrs = append(n.addrs[:i], n.addrs[i+1:]...)
			break
		}
	}
}
