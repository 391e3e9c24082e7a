// Package entity defines the data model for Internet entities — Hosts,
// Services, and Web Properties — that the map maintains. A certificate is
// kept as the fingerprint a service presents (Service.CertSHA256).
//
// Records are designed to be *stable* and *non-ephemeral* (paper §5.1): a
// record must not change if the configuration of the underlying Internet
// entity has not changed. Ephemeral handshake material (nonces, timestamps,
// connection state) therefore never appears here; scanners extract only the
// configuration-derived subset of what they observe. Stability is what makes
// delta-encoded journaling effective: most refresh scans produce no event at
// all.
package entity

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// Transport is the L4 protocol a service is reached over.
type Transport string

// Supported transports.
const (
	TCP Transport = "tcp"
	UDP Transport = "udp"
)

// DetectionMethod records how a service location was found, which the paper
// exposes so users can reason about sampling bias (§4.1).
type DetectionMethod string

// Detection methods.
const (
	DetectPriorityScan   DetectionMethod = "priority_scan"   // daily common-port scan
	DetectCloudScan      DetectionMethod = "cloud_scan"      // dense cloud-network scan
	DetectBackgroundScan DetectionMethod = "background_scan" // background 65K scan
	DetectPredicted      DetectionMethod = "predicted"       // predictive engine
	DetectReinjected     DetectionMethod = "reinjected"      // evicted-service re-injection
	DetectRefresh        DetectionMethod = "refresh"         // scheduled re-interrogation
	DetectUserRequest    DetectionMethod = "user_request"    // real-time scan request
)

// Software is a CPE-style software/hardware label derived by enrichment.
type Software struct {
	Vendor  string `json:"vendor,omitempty"`
	Product string `json:"product"`
	Version string `json:"version,omitempty"`
	// Part is the CPE part: "a" application, "o" OS, "h" hardware.
	Part string `json:"part,omitempty"`
}

// CPE renders the label in CPE 2.3 style: each field lower-cased with its
// spaces as underscores, "*" when empty.
func (s Software) CPE() string {
	part := s.Part
	if part == "" {
		part = "a"
	}
	var b strings.Builder
	b.Grow(len("cpe:2.3:") + len(part) + len(s.Vendor) + len(s.Product) + len(s.Version) + 6)
	b.WriteString("cpe:2.3:")
	b.WriteString(part)
	for _, v := range [...]string{s.Vendor, s.Product, s.Version} {
		b.WriteByte(':')
		if v == "" {
			b.WriteByte('*')
		}
		// As strings.ToLower would: an invalid byte ranges as
		// utf8.RuneError and is written as U+FFFD.
		for _, r := range v {
			if r == ' ' {
				r = '_'
			}
			b.WriteRune(unicode.ToLower(r))
		}
	}
	return b.String()
}

// Service is one L7 service on one port of one host. It is the unit of
// discovery, refresh, and eviction.
type Service struct {
	Port      uint16    `json:"port"`
	Transport Transport `json:"transport"`
	// Protocol is the identified L7 protocol name (e.g. "HTTP", "MODBUS"),
	// or "UNKNOWN" when data was received but could not be fingerprinted.
	Protocol string `json:"protocol"`
	// TLS reports whether the protocol was spoken within a TLS session.
	TLS bool `json:"tls,omitempty"`
	// CertSHA256 is the fingerprint of the presented certificate, if any.
	CertSHA256 string `json:"cert_sha256,omitempty"`
	// Banner is the normalized, configuration-stable banner/greeting.
	Banner string `json:"banner,omitempty"`
	// Attributes are protocol-specific structured fields (e.g. HTTP
	// "http.title", MODBUS "modbus.unit_id"). Values are stable across
	// rescans of an unchanged service.
	Attributes map[string]string `json:"attributes,omitempty"`
	// Method records how this service location was found.
	Method DetectionMethod `json:"method,omitempty"`
	// Verified reports that the full L7 handshake for Protocol completed.
	// Engines that label by port number or keywords leave it false; the
	// distinction drives the ICS over-reporting analysis (paper §6.3).
	Verified bool `json:"verified,omitempty"`

	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
	// PendingRemovalSince is set when a refresh scan fails; the service is
	// evicted once it has been pending for the eviction window (§4.6).
	PendingRemovalSince *time.Time `json:"pending_removal_since,omitempty"`
	// SourcePoP is the point of presence that most recently observed the
	// service.
	SourcePoP string `json:"source_pop,omitempty"`
}

// Key returns the identity of the service within its host.
func (s *Service) Key() ServiceKey {
	return ServiceKey{Port: s.Port, Transport: s.Transport}
}

// ServiceKey identifies a service within a host: one (port, transport) slot.
type ServiceKey struct {
	Port      uint16
	Transport Transport
}

// String renders the key as "80/tcp".
func (k ServiceKey) String() string {
	var b [24]byte
	return string(k.appendTo(b[:0]))
}

// appendTo appends the String form to b.
func (k ServiceKey) appendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(k.Port), 10)
	b = append(b, '/')
	return append(b, k.Transport...)
}

// ConfigEqual reports whether two service records describe the same service
// configuration, ignoring observation bookkeeping (timestamps, PoP, method).
// This is the predicate that decides whether a refresh scan journals a
// "changed" event or nothing.
func (s *Service) ConfigEqual(o *Service) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.Port != o.Port || s.Transport != o.Transport || s.Protocol != o.Protocol ||
		s.TLS != o.TLS || s.CertSHA256 != o.CertSHA256 || s.Banner != o.Banner ||
		s.Verified != o.Verified {
		return false
	}
	if len(s.Attributes) != len(o.Attributes) {
		return false
	}
	for k, v := range s.Attributes {
		if ov, ok := o.Attributes[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the service record.
func (s *Service) Clone() *Service {
	if s == nil {
		return nil
	}
	c := *s
	if s.Attributes != nil {
		c.Attributes = make(map[string]string, len(s.Attributes))
		for k, v := range s.Attributes {
			c.Attributes[k] = v
		}
	}
	if s.PendingRemovalSince != nil {
		t := *s.PendingRemovalSince
		c.PendingRemovalSince = &t
	}
	return &c
}

// Location is derived geolocation context.
type Location struct {
	Country string `json:"country,omitempty"` // ISO 3166-1 alpha-2
	City    string `json:"city,omitempty"`
}

// AS is derived routing/ownership context.
type AS struct {
	Number uint32 `json:"number,omitempty"`
	Name   string `json:"name,omitempty"`
	Org    string `json:"org,omitempty"`
}

// Host is the record for one IP-addressed host: the host's current service
// set plus derived context. Derived context (location, AS, software labels,
// vulnerabilities) is attached at read time by enrichment and is not part of
// the journaled state.
type Host struct {
	IP       netip.Addr          `json:"ip"`
	Services map[string]*Service `json:"services,omitempty"` // keyed by ServiceKey.String()

	// Derived, read-time context (never journaled):
	Location *Location  `json:"location,omitempty"`
	AS       *AS        `json:"as,omitempty"`
	Software []Software `json:"software,omitempty"`
	// Vulns lists CVE IDs matched against derived software labels.
	Vulns []string `json:"vulns,omitempty"`
	// Labels are derived device-type tags (e.g. "ics", "camera", "vpn").
	Labels []string `json:"labels,omitempty"`

	LastUpdated time.Time `json:"last_updated"`
}

// NewHost returns an empty host record for ip.
func NewHost(ip netip.Addr) *Host {
	return &Host{IP: ip, Services: make(map[string]*Service)}
}

// ID returns the entity identifier used as the journal row key.
func (h *Host) ID() string { return h.IP.String() }

// Service returns the service in the given slot, or nil. The map key is
// built in a stack buffer, so the lookup does not allocate.
func (h *Host) Service(key ServiceKey) *Service {
	var b [16]byte
	return h.Services[string(key.appendTo(b[:0]))]
}

// SetService stores svc in its slot.
func (h *Host) SetService(svc *Service) {
	if h.Services == nil {
		h.Services = make(map[string]*Service)
	}
	h.Services[svc.Key().String()] = svc
}

// RemoveService deletes the service in the given slot, reporting whether one
// was present.
func (h *Host) RemoveService(key ServiceKey) bool {
	k := key.String()
	if _, ok := h.Services[k]; !ok {
		return false
	}
	delete(h.Services, k)
	return true
}

// ActiveServices returns services not pending removal, sorted by port then
// transport for deterministic output.
func (h *Host) ActiveServices() []*Service {
	var out []*Service
	for _, s := range h.Services {
		if s.PendingRemovalSince == nil {
			out = append(out, s)
		}
	}
	sortServices(out)
	return out
}

// AllServices returns every service record (including pending-removal),
// sorted.
func (h *Host) AllServices() []*Service {
	out := make([]*Service, 0, len(h.Services))
	for _, s := range h.Services {
		out = append(out, s)
	}
	sortServices(out)
	return out
}

func sortServices(ss []*Service) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].Port != ss[j].Port {
			return ss[i].Port < ss[j].Port
		}
		return ss[i].Transport < ss[j].Transport
	})
}

// Clone returns a deep copy of the host record.
func (h *Host) Clone() *Host {
	if h == nil {
		return nil
	}
	c := *h
	c.Services = make(map[string]*Service, len(h.Services))
	for k, v := range h.Services {
		c.Services[k] = v.Clone()
	}
	if h.Location != nil {
		loc := *h.Location
		c.Location = &loc
	}
	if h.AS != nil {
		as := *h.AS
		c.AS = &as
	}
	c.Software = append([]Software(nil), h.Software...)
	c.Vulns = append([]string(nil), h.Vulns...)
	c.Labels = append([]string(nil), h.Labels...)
	return &c
}

// Endpoint is one fetched path of a web property.
type Endpoint struct {
	Path       string            `json:"path"`
	StatusCode int               `json:"status_code"`
	Title      string            `json:"title,omitempty"`
	BodyHash   string            `json:"body_hash,omitempty"`
	Headers    map[string]string `json:"headers,omitempty"`
}

// WebProperty is a name-addressed HTTP(S)-served entity (paper §4.3): a
// hostname (+ optional non-default port) reached via SNI/Host header, which
// may be served by many IPs (CDNs) — hence it is its own entity rather than
// an attribute of a host.
type WebProperty struct {
	// Name is the hostname, e.g. "app.example.com".
	Name string `json:"name"`
	// Port is the HTTPS/HTTP port; 443 is the default.
	Port uint16 `json:"port"`
	// TLS reports whether the property is served over HTTPS.
	TLS bool `json:"tls,omitempty"`
	// CertSHA256 is the served certificate fingerprint.
	CertSHA256 string `json:"cert_sha256,omitempty"`
	// Endpoints are the fetched root page plus application-specific paths.
	Endpoints []Endpoint `json:"endpoints,omitempty"`
	// Sources records where the name was learned: "ct", "redirect", "pdns".
	Sources []string `json:"sources,omitempty"`

	FirstSeen           time.Time  `json:"first_seen"`
	LastSeen            time.Time  `json:"last_seen"`
	PendingRemovalSince *time.Time `json:"pending_removal_since,omitempty"`
}

// ID returns the entity identifier used as the journal row key.
func (w *WebProperty) ID() string {
	if w.Port == 0 || w.Port == 443 {
		return w.Name
	}
	return fmt.Sprintf("%s:%d", w.Name, w.Port)
}

// ConfigEqual reports whether two web property records describe the same
// configuration, ignoring observation bookkeeping.
func (w *WebProperty) ConfigEqual(o *WebProperty) bool {
	if w == nil || o == nil {
		return w == o
	}
	if w.Name != o.Name || w.Port != o.Port || w.TLS != o.TLS || w.CertSHA256 != o.CertSHA256 {
		return false
	}
	if len(w.Endpoints) != len(o.Endpoints) {
		return false
	}
	for i := range w.Endpoints {
		a, b := w.Endpoints[i], o.Endpoints[i]
		if a.Path != b.Path || a.StatusCode != b.StatusCode || a.Title != b.Title || a.BodyHash != b.BodyHash {
			return false
		}
	}
	return true
}
