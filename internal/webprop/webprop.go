// Package webprop implements name-addressed web property scanning (paper
// §4.3). Most HTTP(S) services are only reachable when addressed by name via
// SNI / Host header, so the pipeline maintains Web Properties as first-class
// entities — keyed by name, not (IP, port, name), after the paper's Virtual
// Host abstraction failed (CDN-backed sites accrete unbounded IP sets).
//
// Names are learned from three sources: public CT logs (polled
// continuously), HTTP redirects observed during IP-based scanning, and
// third-party passive DNS feeds. Properties are refreshed at least monthly
// and evicted after a grace window, like host services.
package webprop

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"censysmap/internal/binrec"
	"censysmap/internal/entity"
	"censysmap/internal/journal"
	"censysmap/internal/protocols"
	"censysmap/internal/simnet"
	"censysmap/internal/x509lite"
)

// Source labels where a name was learned.
const (
	SourceCT       = "ct"
	SourceRedirect = "redirect"
	SourcePDNS     = "pdns"
)

// Event kinds journaled for web properties.
const (
	KindFound   = "webprop_found"
	KindChanged = "webprop_changed"
	KindRemoved = "webprop_removed"
)

// The pipeline's cadences, the paper's.
const (
	// RefreshEvery is the per-name rescan cadence (paper: at least
	// monthly).
	RefreshEvery = 30 * 24 * time.Hour
	// EvictAfter removes a property this long after scans start failing.
	EvictAfter = 14 * 24 * time.Hour
	// ScansPerTick bounds work per tick.
	ScansPerTick = 500
)

type nameState struct {
	name        string
	sources     map[string]bool
	nextScan    time.Time
	failedSince time.Time // zero when healthy
}

// Pipeline maintains the web property map.
type Pipeline struct {
	net     *simnet.Internet
	scanner simnet.Scanner
	journal *journal.Store

	names    map[string]*nameState
	state    map[string]*entity.WebProperty
	ctCursor uint64
	queue    nameRing // scan order queue
}

// nameRing is the scan order queue: a ring over one slice, so moving a name
// from the front to the back moves nothing else and allocates nothing.
type nameRing struct {
	buf     []string
	head, n int
}

func (r *nameRing) len() int { return r.n }

// at returns the i-th name from the front.
func (r *nameRing) at(i int) string { return r.buf[(r.head+i)%len(r.buf)] }

// push appends name at the back, growing the ring when it is full.
func (r *nameRing) push(name string) {
	if r.n == len(r.buf) {
		buf := make([]string, max(2*r.n, 16))
		for i := range r.n {
			buf[i] = r.at(i)
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = name
	r.n++
}

// pop removes and returns the front name.
func (r *nameRing) pop() string {
	name := r.buf[r.head]
	r.buf[r.head] = ""
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return name
}

// New creates a pipeline writing to its own journal.
func New(net *simnet.Internet, scanner simnet.Scanner) *Pipeline {
	return &Pipeline{
		net:     net,
		scanner: scanner,
		journal: journal.NewStore(),
		names:   make(map[string]*nameState),
		state:   make(map[string]*entity.WebProperty),
	}
}

// NewWithJournal creates a pipeline that appends to an existing journal —
// the crash-recovery path, where the journal survives the process and the
// resumed pipeline must continue its event sequence.
func NewWithJournal(net *simnet.Internet, scanner simnet.Scanner, j *journal.Store) *Pipeline {
	p := New(net, scanner)
	p.journal = j
	return p
}

// Journal exposes the property journal (for history queries).
func (p *Pipeline) Journal() *journal.Store { return p.journal }

// NameRecord is one tracked name's scheduling state, exported for
// checkpointing. LastSeen is its property's last successful scan: the one
// property field an unchanged rescan moves without journaling.
type NameRecord struct {
	Name        string
	Sources     []string
	NextScan    time.Time
	FailedSince time.Time // zero when healthy
	LastSeen    time.Time // zero when no scan succeeded
}

// NameRecords is the tracked names in scan-queue order. In a checkpoint it
// is one binary section (binrec.DecodeSection):
//
//	names  := n:uvarint (name flags:u8 next_scan:time [failed_since:time] [last_seen:time]){n}
//	flags  := 1 ct | 2 pdns | 4 redirect | 8 failed_since | 16 last_seen
//
// name is binrec.AppendFront-coded against the previous record's, next_scan
// is binrec.AppendTime against the previous record's (the first's against
// 0), and the two optional times, present exactly when not zero, are against
// their own record's next_scan. Sources are a set of the three known ones,
// listed in string order.
type NameRecords []NameRecord

// sourceSets lists, for each flags&7, the sources its bits name in string
// order. Decoded records share these slices; nothing writes to them.
var sourceSets = func() (sets [8][]string) {
	for mask := 1; mask < 8; mask++ {
		for i, src := range [...]string{SourceCT, SourcePDNS, SourceRedirect} {
			if mask&(1<<i) != 0 {
				sets[mask] = append(sets[mask], src)
			}
		}
		sets[mask] = slices.Clip(sets[mask])
	}
	return sets
}()

const (
	hasFailedSince = 8
	hasLastSeen    = 16
)

func (rs NameRecords) MarshalJSON() ([]byte, error) {
	dst := binary.AppendUvarint(nil, uint64(len(rs)))
	prev, at := "", int64(0)
	for _, rec := range rs {
		mask := slices.IndexFunc(sourceSets[:], func(set []string) bool { return slices.Equal(set, rec.Sources) })
		if mask < 0 {
			return nil, fmt.Errorf("webprop: %s: sources %q are not a set of the known ones", rec.Name, rec.Sources)
		}
		flags := byte(mask)
		if !rec.FailedSince.IsZero() {
			flags |= hasFailedSince
		}
		if !rec.LastSeen.IsZero() {
			flags |= hasLastSeen
		}
		dst = append(binrec.AppendFront(dst, prev, rec.Name), flags)
		dst = binrec.AppendTime(dst, rec.NextScan, at)
		if flags&hasFailedSince != 0 {
			dst = binrec.AppendTime(dst, rec.FailedSince, rec.NextScan.Unix())
		}
		if flags&hasLastSeen != 0 {
			dst = binrec.AppendTime(dst, rec.LastSeen, rec.NextScan.Unix())
		}
		prev, at = rec.Name, rec.NextScan.Unix()
	}
	return binrec.AppendSection(nil, dst), nil
}

func (rs *NameRecords) UnmarshalJSON(data []byte) error {
	return binrec.DecodeSection("names", data, func(r *binrec.Reader) {
		out := make(NameRecords, r.Items("names"))
		prev, at := "", int64(0)
		for i := range out {
			rec := &out[i]
			rec.Name = r.Front("name", prev)
			flags := r.Byte("flags")
			if flags >= hasLastSeen<<1 {
				r.Fail("flags: unknown bits")
			}
			rec.Sources = sourceSets[flags&7]
			rec.NextScan = r.Time("next_scan", at)
			if flags&hasFailedSince != 0 {
				if rec.FailedSince = r.Time("failed_since", rec.NextScan.Unix()); rec.FailedSince.IsZero() {
					r.Fail("failed_since: present but zero")
				}
			}
			if flags&hasLastSeen != 0 {
				if rec.LastSeen = r.Time("last_seen", rec.NextScan.Unix()); rec.LastSeen.IsZero() {
					r.Fail("last_seen: present but zero")
				}
			}
			prev, at = rec.Name, rec.NextScan.Unix()
		}
		*rs = out
	})
}

// State is the pipeline's serializable state: the tracked names, in scan
// queue order (the order is state — it decides which names each tick's budget
// reaches), and the CT log cursor. Between ticks the queue lists every tracked
// name exactly once: a name leaves the map only during its own scan, which
// is when it is off the queue. The current properties are the web journal's
// latest events and are rebuilt from it on Restore.
type State struct {
	Names    NameRecords `json:"names,omitempty"`
	CTCursor uint64      `json:"ct_cursor"`
}

// State captures the pipeline for checkpointing. Call it between ticks.
func (p *Pipeline) State() State {
	st := State{CTCursor: p.ctCursor, Names: make(NameRecords, 0, p.queue.len())}
	for i := range p.queue.len() {
		name := p.queue.at(i)
		ns := p.names[name]
		rec := NameRecord{Name: name, NextScan: ns.nextScan, FailedSince: ns.failedSince}
		for src := range ns.sources {
			rec.Sources = append(rec.Sources, src)
		}
		sort.Strings(rec.Sources)
		if prop := p.state[name]; prop != nil {
			rec.LastSeen = prop.LastSeen
		}
		st.Names = append(st.Names, rec)
	}
	return st
}

// Restore replaces the pipeline's tracking state with a captured one, and
// rebuilds the current properties from the journal: each entity's last
// event, unless that event removed it.
func (p *Pipeline) Restore(st State) error {
	p.state = make(map[string]*entity.WebProperty)
	for _, id := range p.journal.Entities() {
		evs := p.journal.Events(id)
		if len(evs) == 0 || evs[len(evs)-1].Kind == KindRemoved {
			continue
		}
		prop, err := DecodeProperty(evs[len(evs)-1].Payload)
		if err != nil {
			return fmt.Errorf("webprop: restore %s: %w", id, err)
		}
		p.state[prop.Name] = prop
	}
	p.ctCursor = st.CTCursor
	p.queue = nameRing{buf: make([]string, len(st.Names))}
	p.names = make(map[string]*nameState, len(st.Names))
	for _, rec := range st.Names {
		ns := &nameState{name: rec.Name, sources: map[string]bool{},
			nextScan: rec.NextScan, failedSince: rec.FailedSince}
		for _, src := range rec.Sources {
			ns.sources[src] = true
		}
		p.names[rec.Name] = ns
		p.queue.push(rec.Name)
		if prop := p.state[rec.Name]; prop != nil && !rec.LastSeen.IsZero() {
			prop.LastSeen = rec.LastSeen
		}
	}
	return nil
}

// AddName registers a candidate name from a source; duplicates merge
// sources. New names are scheduled for immediate scanning.
func (p *Pipeline) AddName(name, source string, now time.Time) {
	ns := p.names[name]
	if ns == nil {
		ns = &nameState{name: name, sources: map[string]bool{}, nextScan: now}
		p.names[name] = ns
		p.queue.push(name)
	}
	ns.sources[source] = true
}

// PollCT ingests new CT log entries, registering every DNS name on each
// certificate. It returns how many entries were consumed.
func (p *Pipeline) PollCT(log *x509lite.CTLog, now time.Time) int {
	entries := log.Entries(p.ctCursor, 0)
	for _, e := range entries {
		for _, name := range e.Cert.DNSNames {
			p.AddName(name, SourceCT, now)
		}
	}
	p.ctCursor += uint64(len(entries))
	return len(entries)
}

// ImportPassiveDNS ingests a passive DNS feed.
func (p *Pipeline) ImportPassiveDNS(names []string, now time.Time) {
	for _, n := range names {
		p.AddName(n, SourcePDNS, now)
	}
}

// ObserveRedirect feeds a Location header seen during IP-based scanning;
// host-relative and IP-literal targets are ignored.
func (p *Pipeline) ObserveRedirect(location string, now time.Time) {
	name := hostFromURL(location)
	if name == "" {
		return
	}
	p.AddName(name, SourceRedirect, now)
}

func hostFromURL(u string) string {
	rest := u
	for _, scheme := range []string{"https://", "http://"} {
		if len(u) > len(scheme) && u[:len(scheme)] == scheme {
			rest = u[len(scheme):]
			break
		}
	}
	if rest == u && len(u) > 0 && u[0] == '/' {
		return "" // relative
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' || rest[i] == ':' {
			rest = rest[:i]
			break
		}
	}
	// Require at least one dot and a letter (rejects IP literals loosely).
	hasDot, hasAlpha := false, false
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		if c == '.' {
			hasDot = true
		}
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' {
			hasAlpha = true
		}
	}
	if !hasDot || !hasAlpha {
		return ""
	}
	return rest
}

// Tick scans names whose refresh is due, up to the per-tick budget.
func (p *Pipeline) Tick(now time.Time) int {
	scanned := 0
	n := p.queue.len()
	for i := 0; i < n && scanned < ScansPerTick; i++ {
		name := p.queue.pop()
		ns := p.names[name]
		if now.Before(ns.nextScan) {
			p.queue.push(name) // not due yet; recycle
			continue
		}
		p.scanName(ns, now)
		scanned++
		if _, still := p.names[name]; still {
			p.queue.push(name)
		}
	}
	return scanned
}

// scanName performs one name-based HTTPS scan and journals deltas.
func (p *Pipeline) scanName(ns *nameState, now time.Time) {
	ns.nextScan = now.Add(RefreshEvery)
	prop := p.scan(ns, now)
	existing := p.state[ns.name]

	switch {
	case prop != nil:
		ns.failedSince = time.Time{}
		prop.LastSeen = now
		if existing == nil {
			prop.FirstSeen = now
			p.record(KindFound, prop, now)
			return
		}
		prop.FirstSeen = existing.FirstSeen
		if existing.ConfigEqual(prop) {
			existing.LastSeen = now
			return
		}
		p.record(KindChanged, prop, now)
	case existing != nil:
		if ns.failedSince.IsZero() {
			ns.failedSince = now
			// Retry failing names sooner than the monthly cadence.
			ns.nextScan = now.Add(24 * time.Hour)
			return
		}
		ns.nextScan = now.Add(24 * time.Hour)
		if now.Sub(ns.failedSince) >= EvictAfter {
			p.record(KindRemoved, existing, now)
			delete(p.state, ns.name)
			delete(p.names, ns.name)
		}
	default:
		// Never-seen name that doesn't resolve: drop it after the same
		// grace period to bound the queue.
		if ns.failedSince.IsZero() {
			ns.failedSince = now
		} else if now.Sub(ns.failedSince) >= EvictAfter {
			delete(p.names, ns.name)
		}
	}
}

func (p *Pipeline) record(kind string, prop *entity.WebProperty, now time.Time) {
	payload := encodeProp(prop)
	if _, err := p.journal.Append(prop.ID(), now, kind, payload); err != nil {
		return
	}
	if kind == KindRemoved {
		return
	}
	p.state[prop.Name] = prop
}

// scan fetches the property over TLS, including application-specific
// follow-up endpoints.
func (p *Pipeline) scan(ns *nameState, now time.Time) *entity.WebProperty {
	conn, ok := p.net.ConnectName(p.scanner, ns.name, 443)
	if !ok {
		return nil
	}
	info, inner, _, err := protocols.StartTLS(conn)
	if err != nil {
		return nil
	}
	res, err := protocols.ScanHTTPHost(inner, ns.name)
	if err != nil || !res.Complete {
		return nil
	}
	prop := &entity.WebProperty{
		Name: ns.name, Port: 443, TLS: true, CertSHA256: info.CertSHA256,
	}
	for src := range ns.sources {
		prop.Sources = append(prop.Sources, src)
	}
	sort.Strings(prop.Sources)
	status := 200
	if s := res.Attributes["http.status_code"]; s == "301" {
		status = 301
	} else if s == "401" {
		status = 401
	}
	root := entity.Endpoint{
		Path: "/", StatusCode: status,
		Title:    res.Attributes["http.title"],
		BodyHash: res.Attributes["http.body_sha256"],
	}
	prop.Endpoints = []entity.Endpoint{root}

	// Redirects seen on web properties also feed the name sources.
	if loc := res.Attributes["http.location"]; loc != "" {
		p.ObserveRedirect(loc, now)
	}

	// Fetch additional endpoints based on the identified application
	// (paper §4.3: "fetch additional endpoints based on the identified
	// application").
	for _, path := range appEndpoints(root.Title) {
		if conn2, ok := p.net.ConnectName(p.scanner, ns.name, 443); ok {
			if _, inner2, _, err := protocols.StartTLS(conn2); err == nil {
				if res2, err := protocols.ScanHTTPHost(inner2, ns.name); err == nil && res2.Complete {
					prop.Endpoints = append(prop.Endpoints, entity.Endpoint{
						Path: path, StatusCode: 200,
						BodyHash: res2.Attributes["http.body_sha256"],
					})
				}
			}
		}
	}
	return prop
}

// appEndpoints maps identified applications to follow-up paths.
func appEndpoints(title string) []string {
	switch {
	case strings.Contains(title, "Grafana"):
		return []string{"/api/health"}
	case strings.Contains(title, "Prometheus"):
		return []string{"/metrics"}
	case strings.Contains(title, "MOVEit"):
		return []string{"/api/v1/info"}
	default:
		return nil
	}
}

// encodeProp serializes a property for journaling. Web properties change
// rarely and are small, so full-record events are the right trade-off here
// (unlike hosts, whose per-service deltas dominate).
func encodeProp(w *entity.WebProperty) []byte {
	b, err := json.Marshal(w)
	if err != nil {
		panic("webprop: marshal cannot fail: " + err.Error())
	}
	return b
}

// DecodeProperty parses a journaled property payload.
func DecodeProperty(payload []byte) (*entity.WebProperty, error) {
	var w entity.WebProperty
	if err := json.Unmarshal(payload, &w); err != nil {
		return nil, err
	}
	return &w, nil
}

// All returns every current property sorted by name.
func (p *Pipeline) All() []*entity.WebProperty {
	out := make([]*entity.WebProperty, 0, len(p.state))
	for _, w := range p.state {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
