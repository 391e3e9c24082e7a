// Package enrich implements read-time context derivation (paper §5.2): the
// read side combines journaled scan data with external datasets (GeoIP,
// WHOIS/ASN, CVEs) and derives higher-level attributes — device manufacturer
// and model, software versions (CPE-style), vulnerability exposure, and
// device-type labels — through static fingerprints written as declarative
// filters and the Lisp-like DSL of package fingerdsl.
package enrich

import (
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"censysmap/internal/entity"
	"censysmap/internal/fingerdsl"
)

// GeoDB maps address ranges to locations, like a commercial GeoIP feed.
type GeoDB struct {
	entries []geoEntry // sorted by prefix base
}

type geoEntry struct {
	prefix  netip.Prefix
	country string
	city    string
}

// NewGeoDB creates an empty database.
func NewGeoDB() *GeoDB { return &GeoDB{} }

// Add registers a prefix's location.
func (g *GeoDB) Add(prefix netip.Prefix, country, city string) {
	g.entries = append(g.entries, geoEntry{prefix: prefix, country: country, city: city})
	sort.Slice(g.entries, func(i, j int) bool {
		if g.entries[i].prefix.Addr() != g.entries[j].prefix.Addr() {
			return g.entries[i].prefix.Addr().Less(g.entries[j].prefix.Addr())
		}
		return g.entries[i].prefix.Bits() > g.entries[j].prefix.Bits()
	})
}

// Lookup returns the most specific location covering addr.
func (g *GeoDB) Lookup(addr netip.Addr) (*entity.Location, bool) {
	best := -1
	bestBits := -1
	for i, e := range g.entries {
		if e.prefix.Contains(addr) && e.prefix.Bits() > bestBits {
			best, bestBits = i, e.prefix.Bits()
		}
	}
	if best < 0 {
		return nil, false
	}
	return &entity.Location{Country: g.entries[best].country, City: g.entries[best].city}, true
}

// Len reports the number of entries.
func (g *GeoDB) Len() int { return len(g.entries) }

// ASNDB maps prefixes to origin AS and organization (WHOIS-style data).
type ASNDB struct {
	entries []asnEntry
}

type asnEntry struct {
	prefix netip.Prefix
	as     entity.AS
}

// NewASNDB creates an empty database.
func NewASNDB() *ASNDB { return &ASNDB{} }

// Add registers a prefix's origin.
func (a *ASNDB) Add(prefix netip.Prefix, number uint32, name, org string) {
	a.entries = append(a.entries, asnEntry{prefix: prefix,
		as: entity.AS{Number: number, Name: name, Org: org}})
}

// Lookup returns the most specific AS covering addr.
func (a *ASNDB) Lookup(addr netip.Addr) (*entity.AS, bool) {
	bestBits := -1
	var best *entity.AS
	for i := range a.entries {
		e := &a.entries[i]
		if e.prefix.Contains(addr) && e.prefix.Bits() > bestBits {
			bestBits = e.prefix.Bits()
			best = &e.as
		}
	}
	if best == nil {
		return nil, false
	}
	out := *best
	return &out, true
}

// CVERule matches a vulnerability against derived software labels.
type CVERule struct {
	ID      string
	Vendor  string
	Product string
	// Versions lists affected exact versions; empty means any.
	Versions []string
}

// Matches reports whether the rule applies to the software label.
func (r *CVERule) Matches(sw entity.Software) bool {
	if !strings.EqualFold(r.Vendor, sw.Vendor) || !strings.EqualFold(r.Product, sw.Product) {
		return false
	}
	if len(r.Versions) == 0 {
		return true
	}
	for _, v := range r.Versions {
		if v == sw.Version {
			return true
		}
	}
	return false
}

// Fingerprint derives software/device identity from service fields. Match is
// either declarative (Field+Equals/Contains) or a DSL expression; exactly
// one mechanism should be set.
type Fingerprint struct {
	Name string
	// Declarative filter:
	Field    string
	Equals   string
	Contains string
	// DSL filter:
	Expr *fingerdsl.Expr
	// Derived outputs:
	Software *entity.Software
	Labels   []string
}

// matches evaluates the fingerprint against a field context.
func (f *Fingerprint) matches(ctx fingerdsl.Context) bool {
	if f.Expr != nil {
		return f.Expr.Match(ctx)
	}
	v, ok := ctx.Field(f.Field)
	if !ok {
		return false
	}
	if f.Equals != "" {
		return v == f.Equals
	}
	if f.Contains != "" {
		return strings.Contains(v, f.Contains)
	}
	return false
}

// Enricher attaches derived context at read time. It implements
// cqrs.Enricher.
type Enricher struct {
	Geo          *GeoDB
	ASN          *ASNDB
	CVEs         []CVERule
	Fingerprints []Fingerprint
}

// New creates an enricher with the built-in fingerprint and CVE tables.
func New(geo *GeoDB, asn *ASNDB) *Enricher {
	return &Enricher{Geo: geo, ASN: asn, CVEs: BuiltinCVEs(), Fingerprints: BuiltinFingerprints()}
}

// serviceContext exposes a service record as DSL fields: its attributes,
// then the intrinsic port, protocol, banner and (when set) tls. An attribute
// shadows the intrinsic field of the same name.
type serviceContext struct{ svc *entity.Service }

// Field implements fingerdsl.Context.
func (c serviceContext) Field(name string) (string, bool) {
	if v, ok := c.svc.Attributes[name]; ok {
		return v, true
	}
	switch name {
	case "port":
		return strconv.Itoa(int(c.svc.Port)), true
	case "protocol":
		return c.svc.Protocol, true
	case "banner":
		return c.svc.Banner, true
	case "tls":
		if c.svc.TLS {
			return "true", true
		}
	}
	return "", false
}

// Enrich implements cqrs.Enricher: geolocation, routing, fingerprint-derived
// software and labels, and CVE exposure.
func (e *Enricher) Enrich(h *entity.Host) {
	if e.Geo != nil {
		if loc, ok := e.Geo.Lookup(h.IP); ok {
			h.Location = loc
		}
	}
	if e.ASN != nil {
		if as, ok := e.ASN.Lookup(h.IP); ok {
			h.AS = as
		}
	}

	seenSW := map[string]bool{}
	seenLabel := map[string]bool{}
	h.Software = nil
	h.Labels = nil
	h.Vulns = nil
	for _, svc := range h.ActiveServices() {
		ctx := serviceContext{svc}
		for i := range e.Fingerprints {
			fp := &e.Fingerprints[i]
			if !fp.matches(ctx) {
				continue
			}
			if fp.Software != nil {
				key := fp.Software.CPE()
				if !seenSW[key] {
					seenSW[key] = true
					h.Software = append(h.Software, *fp.Software)
				}
			}
			for _, l := range fp.Labels {
				if !seenLabel[l] {
					seenLabel[l] = true
					h.Labels = append(h.Labels, l)
				}
			}
		}
		// Protocol-intrinsic labels.
		if p := icsProtocols[svc.Protocol]; p && svc.Verified {
			if !seenLabel["ics"] {
				seenLabel["ics"] = true
				h.Labels = append(h.Labels, "ics")
			}
		}
	}
	sort.Strings(h.Labels)

	seenCVE := map[string]bool{}
	for _, sw := range h.Software {
		for i := range e.CVEs {
			r := &e.CVEs[i]
			if r.Matches(sw) && !seenCVE[r.ID] {
				seenCVE[r.ID] = true
				h.Vulns = append(h.Vulns, r.ID)
			}
		}
	}
	sort.Strings(h.Vulns)
}

// icsProtocols mirrors the protocol registry's ICS set; kept as a literal to
// avoid an import cycle with the protocols package.
var icsProtocols = map[string]bool{
	"MODBUS": true, "S7": true, "BACNET": true, "DNP3": true, "FOX": true,
	"EIP": true, "ATG": true, "CODESYS": true, "FINS": true, "IEC104": true,
	"GE_SRTP": true, "REDLION": true, "PCWORX": true, "PROCONOS": true,
	"HART": true, "WDBRPC": true,
}
