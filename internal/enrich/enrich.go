// Package enrich implements read-time context derivation (paper §5.2): the
// read side combines journaled scan data with external datasets (GeoIP,
// WHOIS/ASN, CVEs) and derives higher-level attributes — device manufacturer
// and model, software versions (CPE-style), vulnerability exposure, and
// device-type labels — through static fingerprints written as declarative
// filters and the Lisp-like DSL of package fingerdsl.
package enrich

import (
	"net/netip"
	"slices"
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
	e.Locate(h)
	active := h.ActiveServices()
	// Every service derives into the same buffers; each keeps a window.
	n := len(active)
	all := Derived{Software: make([]entity.Software, 0, n), cpes: make([]string, 0, n),
		Labels: make([]string, 0, 2*n)}
	derived := make([]Derived, n)
	for i, svc := range active {
		sw, labels := len(all.Software), len(all.Labels)
		e.derive(svc, &all)
		derived[i] = Derived{Software: slices.Clip(all.Software[sw:]), cpes: slices.Clip(all.cpes[sw:]),
			Labels: slices.Clip(all.Labels[labels:])}
	}
	e.Combine(h, len(derived), func(i int) *Derived { return &derived[i] }, nil)
}

// Locate attaches the host's geolocation and routing context.
func (e *Enricher) Locate(h *entity.Host) {
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
}

// Derived is what one service record contributes to its host's derived
// context: the software its fingerprints name, in table order, and its
// device-type labels. It depends on the record's configuration alone, so a
// record is derived once and its Derived shared, never modified, by every
// later version of the host that holds an equal record.
type Derived struct {
	Software []entity.Software
	cpes     []string // cpes[i] is Software[i].CPE()
	Labels   []string
}

// underived is the Derived of a record no fingerprint matches (most of them).
var underived = &Derived{}

// Derive runs every fingerprint over one service record.
func (e *Enricher) Derive(svc *entity.Service) *Derived {
	var d Derived
	e.derive(svc, &d)
	if d.Software == nil && d.Labels == nil {
		return underived
	}
	return &d
}

// derive appends what svc contributes to d.
func (e *Enricher) derive(svc *entity.Service, d *Derived) {
	ctx := serviceContext{svc}
	for i := range e.Fingerprints {
		fp := &e.Fingerprints[i]
		if !fp.matches(ctx) {
			continue
		}
		if fp.Software != nil {
			d.Software = append(d.Software, *fp.Software)
			d.cpes = append(d.cpes, fp.Software.CPE())
		}
		d.Labels = append(d.Labels, fp.Labels...)
	}
	// Protocol-intrinsic labels.
	if icsProtocols[svc.Protocol] && svc.Verified {
		d.Labels = append(d.Labels, "ics")
	}
}

// Combine sets h's Software, Labels and Vulns from the Derived of its n
// active services, at(0) to at(n-1) in slot order: the software in order of
// first appearance, one per CPE; the labels and the CVEs the software is
// exposed to, sorted. Each field that comes out equal to prev's (h's previous
// version, or nil) takes prev's slice, so an unchanged host allocates
// nothing; Combine reports whether any field differs from prev's.
func (e *Enricher) Combine(h *entity.Host, n int, at func(i int) *Derived, prev *entity.Host) (changed bool) {
	// firstCPE reports whether entry j of at(i) is the first with its CPE.
	firstCPE := func(i, j int) bool {
		cpe := at(i).cpes[j]
		for k := 0; k <= i; k++ {
			cpes := at(k).cpes
			if k == i {
				cpes = cpes[:j]
			}
			if slices.Contains(cpes, cpe) {
				return false
			}
		}
		return true
	}
	// firstLabel reports whether label j of at(i) is the first of its name.
	firstLabel := func(i, j int) bool {
		l := at(i).Labels[j]
		for k := 0; k <= i; k++ {
			labels := at(k).Labels
			if k == i {
				labels = labels[:j]
			}
			if slices.Contains(labels, l) {
				return false
			}
		}
		return true
	}

	sameSW, sameLabels := prev != nil, prev != nil
	var prevLabels []string
	if prev != nil {
		prevLabels = prev.Labels
	}
	nsw, nlabels := 0, 0
	for i := 0; i < n; i++ {
		d := at(i)
		for j, sw := range d.Software {
			if firstCPE(i, j) {
				sameSW = sameSW && nsw < len(prev.Software) && prev.Software[nsw] == sw
				nsw++
			}
		}
		for j, l := range d.Labels {
			if firstLabel(i, j) {
				_, held := slices.BinarySearch(prevLabels, l)
				sameLabels = sameLabels && held
				nlabels++
			}
		}
	}
	sameSW = sameSW && nsw == len(prev.Software)
	sameLabels = sameLabels && nlabels == len(prev.Labels)

	if sameSW {
		h.Software, h.Vulns = prev.Software, prev.Vulns
	} else {
		h.Software, h.Vulns = nil, nil
		if nsw > 0 {
			h.Software = make([]entity.Software, 0, nsw)
		}
		for i := 0; i < n; i++ {
			for j, sw := range at(i).Software {
				if firstCPE(i, j) {
					h.Software = append(h.Software, sw)
				}
			}
		}
		for i := range e.CVEs {
			r := &e.CVEs[i]
			if !slices.Contains(h.Vulns, r.ID) && slices.ContainsFunc(h.Software, r.Matches) {
				h.Vulns = append(h.Vulns, r.ID)
			}
		}
		sort.Strings(h.Vulns)
	}
	if sameLabels {
		h.Labels = prev.Labels
	} else {
		h.Labels = nil
		if nlabels > 0 {
			h.Labels = make([]string, 0, nlabels)
		}
		for i := 0; i < n; i++ {
			for j, l := range at(i).Labels {
				if firstLabel(i, j) {
					h.Labels = append(h.Labels, l)
				}
			}
		}
		sort.Strings(h.Labels)
	}
	return !sameSW || !sameLabels
}

// icsProtocols mirrors the protocol registry's ICS set; kept as a literal to
// avoid an import cycle with the protocols package.
var icsProtocols = map[string]bool{
	"MODBUS": true, "S7": true, "BACNET": true, "DNP3": true, "FOX": true,
	"EIP": true, "ATG": true, "CODESYS": true, "FINS": true, "IEC104": true,
	"GE_SRTP": true, "REDLION": true, "PCWORX": true, "PROCONOS": true,
	"HART": true, "WDBRPC": true,
}
