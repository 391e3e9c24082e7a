// Package search implements the interactive search interface of paper §5.3:
// an inverted index over the current state of every entity, queried with a
// Lucene-like language (field references, boolean operators, phrases,
// wildcards, numeric ranges). It stands in for the Elasticsearch tier.
//
// The execution engine is built around compressed integer postings: each
// partition keeps a dense docID dictionary (entity ID → uint32) and stores
// every posting list as a sorted []uint32, so boolean operators are linear
// merges; numeric fields are sorted (value, doc) columns, so range queries
// are two binary searches. A document is two host fragments (identity and
// derived context) plus one immutable fragment per active service, each
// holding its lowercased values and token lists, so phrase matching never
// re-lowercases and a reindex touches only the fragments that changed. A
// query planner (planner.go) and a generation-stamped query cache (cache.go)
// sit on top. See DESIGN.md, "Read path".
package search

import (
	"cmp"
	"encoding/json"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"censysmap/internal/enrich"
	"censysmap/internal/entity"
	"censysmap/internal/shard"
)

// Index is the searchable view of current entity state. It is maintained
// incrementally from write-side events (hosts are upserted as they change
// and removed as they disappear) and is safe for concurrent use.
//
// The index is partitioned: documents are striped over N independently
// locked partitions by a stable hash of the entity ID (the same routing the
// CQRS processor and journal use), so index maintenance driven from
// different processor shards does not serialize on one lock. Queries
// evaluate per partition and merge — every query operator is a per-document
// predicate, so a union of per-partition results is exactly the global
// result.
type Index struct {
	parts []*indexPart

	// cacheOff disables the per-partition query cache (benchmarks measuring
	// raw evaluation; differential tests exercising both paths).
	cacheOff atomic.Bool
	// hits/misses count query-cache outcomes across all partitions.
	hits, misses atomic.Uint64
	// planHits/planMisses count prepared-statement (plan) cache outcomes.
	planHits, planMisses atomic.Uint64

	// plans caches compiled queries by raw query text — the prepared-
	// statement cache. Compilation is pure (independent of index contents),
	// so entries never go stale and survive the result cache's generation
	// churn.
	planMu sync.Mutex
	plans  map[string]*Query
}

// indexPart is one independently locked stripe of the index.
type indexPart struct {
	mu sync.RWMutex

	// docID dictionary: entity ID ↔ dense partition-local uint32. Entries
	// are never recycled — a re-upserted entity keeps its local ID — so the
	// dictionary is bounded by the number of distinct entities ever seen.
	idOf    map[string]uint32
	byLocal []*document // local ID -> live document (nil when removed)

	// live is the sorted local-ID list of present documents: the base set
	// for NOT complements and the scan order for phrase evaluation.
	live []uint32

	docs map[string]*document
	// inverted maps field -> token -> sorted local-ID posting list.
	inverted map[string]map[string][]uint32
	// numeric maps field -> sorted (value, doc) column.
	numeric map[string]numCol

	// gen counts mutations; the query cache stamps entries with it. Bumped
	// under mu (write), read atomically by the cache probe.
	gen atomic.Uint64

	cacheMu sync.Mutex
	cache   map[string]cacheEntry
}

// document is one indexed entity: its host and the fragments its postings
// come from. It is immutable once posted: Upsert and Project replace a
// document, never edit it, which is what lets it carry its host's wire bytes
// without their going stale and lets the next version share its unchanged
// fragments.
type document struct {
	id    string
	local uint32
	// host is the record the document renders, built from base and svcs on
	// first read (see record), since most versions are never read.
	host atomic.Pointer[entity.Host]
	// base is the host-level fields (Services nil) and svcs the service
	// records in slot order.
	base entity.Host
	svcs []entity.Service
	// frags[identityFrag] indexes the host's ip, location and AS,
	// frags[derivedFrag] its labels, vulns and software, and
	// frags[firstServiceFrag:] one active service each, in slot order.
	frags []*fragment
	// rendered is json.Marshal(host), set by the first read that emits it
	// (see render) — not at Upsert, because most documents are replaced
	// before anyone reads them.
	rendered atomic.Pointer[[]byte]
}

// The host-level fragments' places in document.frags.
const (
	identityFrag = iota
	derivedFrag
	firstServiceFrag
)

// fragment is the indexed form of one active service, or of one of a host's
// two host-level field groups. It is built once and shared, unchanged, by
// every later version of the document whose service (or fields) is equal.
type fragment struct {
	key     entity.ServiceKey // the service's slot; zero for host fragments
	entries []entry
	// derived is what the service contributes to its host's derived context.
	// Project sets it; Upsert, whose host comes enriched, leaves it nil.
	derived *enrich.Derived
}

// entry is one indexed (field, value) pair of a fragment.
type entry struct {
	field string
	// toks are the value's distinct tokens; toks[0] is the whole lowercased
	// value, which phrase queries scan.
	toks  []string
	num   int64 // the raw value as an integer, when isNum
	isNum bool
	text  bool // field is one of textFieldList
}

// render returns the document's canonical JSON, marshalling it on first use.
// Two racing first readers marshal the same immutable host and store
// identical bytes, so either store may win.
func (d *document) render() ([]byte, error) {
	if b := d.rendered.Load(); b != nil {
		return *b, nil
	}
	b, err := json.Marshal(d.record())
	if err != nil {
		return nil, err
	}
	d.rendered.Store(&b)
	return b, nil
}

// record returns the document's host, building it on first use. Racing
// first readers build equal hosts; the first stored wins.
func (d *document) record() *entity.Host {
	if h := d.host.Load(); h != nil {
		return h
	}
	h := d.base
	h.Services = make(map[string]*entity.Service, len(d.svcs))
	for i := range d.svcs {
		s := &d.svcs[i]
		h.Services[s.Key().String()] = s
	}
	d.host.CompareAndSwap(nil, &h)
	return d.host.Load()
}

// service returns the document's record in key's slot, or nil.
func (d *document) service(key entity.ServiceKey) *entity.Service {
	i, ok := slices.BinarySearchFunc(d.svcs, key, func(s entity.Service, key entity.ServiceKey) int {
		return cmpKey(s.Key(), key)
	})
	if ok {
		return &d.svcs[i]
	}
	return nil
}

// NewPartitioned creates an empty index striped over n partitions
// (n <= 1 gives one partition).
func NewPartitioned(n int) *Index {
	if n < 1 {
		n = 1
	}
	ix := &Index{parts: make([]*indexPart, n), plans: make(map[string]*Query)}
	for i := range ix.parts {
		ix.parts[i] = &indexPart{
			idOf:     make(map[string]uint32),
			docs:     make(map[string]*document),
			inverted: make(map[string]map[string][]uint32),
			numeric:  make(map[string]numCol),
			cache:    make(map[string]cacheEntry),
		}
	}
	return ix
}

// Partitions reports the stripe count.
func (ix *Index) Partitions() int { return len(ix.parts) }

func (ix *Index) part(id string) *indexPart {
	return ix.parts[shard.Of(id, len(ix.parts))]
}

// textFieldList names the fields searched by bare (fieldless) terms, sorted
// for deterministic iteration.
var textFieldList = []string{
	"as.org", "labels", "services.banner", "services.http.server",
	"services.http.title", "services.protocol", "software.product",
}

// appendTokens appends the distinct tokens of an already lowercased value to
// dst: the value itself, then each maximal run of [a-z0-9._/-] in order of
// first appearance (every other rune, non-ASCII included, separates). The
// tokens are substrings of the value, and a value has a handful of them, so
// a linear scan dedupes them without building a set.
func appendTokens(dst []string, lower string) []string {
	first := len(dst)
	dst = append(dst, lower)
	start := -1
	for i, r := range lower {
		if 'a' <= r && r <= 'z' || '0' <= r && r <= '9' || r == '.' || r == '-' || r == '_' || r == '/' {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst, start = appendNew(dst, first, lower[start:i]), -1
		}
	}
	if start >= 0 {
		dst = appendNew(dst, first, lower[start:])
	}
	return dst
}

func appendNew(dst []string, first int, tok string) []string {
	if slices.Contains(dst[first:], tok) {
		return dst
	}
	return append(dst, tok)
}

// parseNumber reads a value shaped [+-]?[0-9]+ as an int64, leaving every
// other value (most are text) to no strconv call and no error allocation.
func parseNumber(v string) (int64, bool) {
	digits := v
	if digits != "" && (digits[0] == '+' || digits[0] == '-') {
		digits = digits[1:]
	}
	if digits == "" {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.ParseInt(v, 10, 64)
	return n, err == nil
}

// fragBuilder accumulates one fragment. Every entry's tokens are a capped
// window of one shared backing slice, so a fragment costs a few allocations
// however many values it holds.
type fragBuilder struct {
	f    *fragment
	toks []string
}

func newFragBuilder(key entity.ServiceKey, values int) fragBuilder {
	return fragBuilder{
		f:    &fragment{key: key, entries: make([]entry, 0, values)},
		toks: make([]string, 0, 3*values),
	}
}

// add indexes one value under field; empty values are not indexed.
func (b *fragBuilder) add(field, v string) {
	if v == "" {
		return
	}
	lo := len(b.toks)
	b.toks = appendTokens(b.toks, strings.ToLower(v))
	e := entry{field: field, toks: b.toks[lo:len(b.toks):len(b.toks)],
		text: slices.Contains(textFieldList, field)}
	e.num, e.isNum = parseNumber(v)
	b.f.entries = append(b.f.entries, e)
}

// identityFragment indexes a host's identity fields: its address, location
// and AS, which no write-side event moves. With derivedFragment and
// serviceFragment it is the document schema of the search tier.
func identityFragment(id string, h *entity.Host) *fragment {
	b := newFragBuilder(entity.ServiceKey{}, 6)
	b.add("ip", id)
	if h.Location != nil {
		b.add("location.country", h.Location.Country)
		b.add("location.city", h.Location.City)
	}
	if h.AS != nil {
		b.add("as.number", strconv.FormatUint(uint64(h.AS.Number), 10))
		b.add("as.name", h.AS.Name)
		b.add("as.org", h.AS.Org)
	}
	return b.f
}

// derivedFragment indexes a host's derived context: labels, vulnerabilities
// and software. Their values come from the enrichment tables, so the
// entries are taken from derivedEntries rather than tokenized anew.
func derivedFragment(h *entity.Host) *fragment {
	f := &fragment{entries: make([]entry, 0, len(h.Labels)+len(h.Vulns)+4*len(h.Software))}
	for _, l := range h.Labels {
		f.entries = vocab.appendValue(f.entries, "labels", l)
	}
	for _, v := range h.Vulns {
		f.entries = vocab.appendValue(f.entries, "vulns", v)
	}
	for _, sw := range h.Software {
		f.entries = vocab.appendSoftware(f.entries, sw)
	}
	return f
}

// vocabulary keeps what fragments index again and again, built once: the
// entries of derived-context values (an entry is immutable once built,
// tokens included) and the field names of service attributes. Each table
// holds at most vocabularyCap items, so a stream of arbitrary values cannot
// grow it without bound; past that, the rest are built per fragment.
type vocabulary struct {
	mu       sync.RWMutex
	values   map[[2]string]entry         // by field and value
	software map[entity.Software][]entry // a software label's four fields
	fields   map[string]string           // attribute name -> "services."+name
}

const vocabularyCap = 4096

var vocab = vocabulary{values: make(map[[2]string]entry),
	software: make(map[entity.Software][]entry), fields: make(map[string]string)}

// appendValue appends the entry indexing v under field, if v is not empty.
func (c *vocabulary) appendValue(dst []entry, field, v string) []entry {
	if v == "" {
		return dst
	}
	key := [2]string{field, v}
	c.mu.RLock()
	e, ok := c.values[key]
	c.mu.RUnlock()
	if !ok {
		b := newFragBuilder(entity.ServiceKey{}, 1)
		b.add(field, v)
		e = b.f.entries[0]
		c.mu.Lock()
		if len(c.values) < vocabularyCap {
			c.values[key] = e
		}
		c.mu.Unlock()
	}
	return append(dst, e)
}

// appendSoftware appends the entries indexing a software label.
func (c *vocabulary) appendSoftware(dst []entry, sw entity.Software) []entry {
	c.mu.RLock()
	es, ok := c.software[sw]
	c.mu.RUnlock()
	if !ok {
		b := newFragBuilder(entity.ServiceKey{}, 4)
		b.add("software.product", sw.Product)
		b.add("software.vendor", sw.Vendor)
		b.add("software.version", sw.Version)
		b.add("software.cpe", sw.CPE())
		es = b.f.entries
		c.mu.Lock()
		if len(c.software) < vocabularyCap {
			c.software[sw] = es
		}
		c.mu.Unlock()
	}
	return append(dst, es...)
}

// field returns the field name of the service attribute k.
func (c *vocabulary) field(k string) string {
	c.mu.RLock()
	f, ok := c.fields[k]
	c.mu.RUnlock()
	if !ok {
		f = "services." + k
		c.mu.Lock()
		if len(c.fields) < vocabularyCap {
			c.fields[k] = f
		}
		c.mu.Unlock()
	}
	return f
}

// serviceFragment indexes one active service.
func serviceFragment(svc *entity.Service) *fragment {
	b := newFragBuilder(svc.Key(), 7+len(svc.Attributes))
	b.add("services.port", strconv.Itoa(int(svc.Port)))
	b.add("services.transport", string(svc.Transport))
	b.add("services.protocol", svc.Protocol)
	b.add("services.service_name", svc.Protocol) // paper's query syntax alias
	b.add("services.banner", svc.Banner)
	if svc.TLS {
		b.add("services.tls", "true")
	}
	b.add("services.cert_sha256", svc.CertSHA256)
	for k, v := range svc.Attributes {
		b.add(vocab.field(k), v)
	}
	return b.f
}

// hostDocument builds the document of an enriched host: its host-level
// fields, copies of its records in slot order (sharing each record's
// Attributes and PendingRemovalSince), and every fragment new.
func hostDocument(id string, h *entity.Host) *document {
	d := &document{id: id, base: *h, svcs: make([]entity.Service, 0, len(h.Services))}
	d.base.Services = nil
	for _, s := range h.Services {
		d.svcs = append(d.svcs, *s)
	}
	slices.SortFunc(d.svcs, func(a, b entity.Service) int { return cmpKey(a.Key(), b.Key()) })
	d.frags = make([]*fragment, firstServiceFrag, firstServiceFrag+len(d.svcs))
	d.frags[identityFrag] = identityFragment(id, &d.base)
	d.frags[derivedFrag] = derivedFragment(&d.base)
	for i := range d.svcs {
		if d.svcs[i].PendingRemovalSince == nil {
			d.frags = append(d.frags, serviceFragment(&d.svcs[i]))
		}
	}
	return d
}

// projectDocument builds the successor of prev (the entity's current
// document, or nil) from the write side's records of all the host's
// services, svcs, in slot order, after an event on the service in slot
// changed. Every other active record takes prev's fragment for its slot,
// and with it the fragment's derivation; only the changed record, and one
// prev has no fragment for, is fragmented and derived anew. The host's
// identity comes from prev and is looked up only for a new document; its
// derived context is the union of the services' derivations (Combine), and
// the derived fragment is rebuilt only when that union moved.
//
// A record whose configuration changed has an event of its own, so once a
// drain's events are all projected every fragment is current: the document
// is what hostDocument builds from the enriched host.
func projectDocument(id string, ip netip.Addr, updated time.Time, svcs []entity.Service,
	changed entity.ServiceKey, e *enrich.Enricher, prev *document) *document {
	d := &document{id: id, svcs: svcs, frags: make([]*fragment, firstServiceFrag, firstServiceFrag+len(svcs))}
	d.base.IP, d.base.LastUpdated = ip, updated
	var prevFields *entity.Host
	if prev != nil {
		prevFields = &prev.base
		d.base.Location, d.base.AS = prevFields.Location, prevFields.AS
		d.frags[identityFrag] = prev.frags[identityFrag]
	} else {
		e.Locate(&d.base)
		d.frags[identityFrag] = identityFragment(id, &d.base)
	}
	var old []*fragment // prev's service fragments after the last one taken
	if prevFields != nil {
		old = prev.frags[firstServiceFrag:]
	}
	for i := range svcs {
		s := &svcs[i]
		if s.PendingRemovalSince != nil {
			continue
		}
		key := s.Key()
		for len(old) > 0 && cmpKey(old[0].key, key) < 0 {
			old = old[1:]
		}
		if key != changed && len(old) > 0 && old[0].key == key {
			d.frags = append(d.frags, old[0])
			continue
		}
		f := serviceFragment(s)
		f.derived = e.Derive(s)
		d.frags = append(d.frags, f)
	}
	services := d.frags[firstServiceFrag:]
	if e.Combine(&d.base, len(services), func(i int) *enrich.Derived { return services[i].derived }, prevFields) {
		d.frags[derivedFrag] = derivedFragment(&d.base)
	} else {
		d.frags[derivedFrag] = prev.frags[derivedFrag]
	}
	return d
}

// cmpKey orders slots by port, then transport.
func cmpKey(a, b entity.ServiceKey) int {
	return cmp.Or(cmp.Compare(a.Port, b.Port), cmp.Compare(a.Transport, b.Transport))
}

// hasFragment reports whether d is built on f itself (not on an equal copy).
func (d *document) hasFragment(f *fragment) bool {
	return d != nil && slices.Contains(d.frags, f)
}

// holdsToken reports whether any of frags posts tok under field.
func holdsToken(frags []*fragment, field, tok string) bool {
	return anyEntry(frags, func(e *entry) bool { return e.field == field && slices.Contains(e.toks, tok) })
}

// holdsNumber reports whether any of frags enters n in field's column.
func holdsNumber(frags []*fragment, field string, n int64) bool {
	return anyEntry(frags, func(e *entry) bool { return e.isNum && e.num == n && e.field == field })
}

func (d *document) anyEntry(match func(e *entry) bool) bool {
	return anyEntry(d.frags, match)
}

func anyEntry(frags []*fragment, match func(e *entry) bool) bool {
	for _, f := range frags {
		for i := range f.entries {
			if match(&f.entries[i]) {
				return true
			}
		}
	}
	return false
}

// localID returns the partition-local dense ID for an entity, allocating on
// first sight. Caller holds the write lock.
func (p *indexPart) localID(id string) uint32 {
	if lid, ok := p.idOf[id]; ok {
		return lid
	}
	lid := uint32(len(p.byLocal))
	p.idOf[id] = lid
	p.byLocal = append(p.byLocal, nil)
	return lid
}

// Upsert indexes (or reindexes) an enriched host's current state. The
// document shares the Attributes maps and PendingRemovalSince of h's
// records, so the caller must not modify those afterwards. Its fragments are
// built outside the partition lock, and under it only the postings of what
// changed since the current document move (see repost).
func (ix *Index) Upsert(h *entity.Host) {
	id := h.ID()
	ix.part(id).replace(id, hostDocument(id, h))
}

// Project indexes a host's new version after a write-side event on the
// service in slot changed: svcs are copies of every service record the
// write side holds for the host, in slot order (the index keeps the slice
// and the records, and the Attributes maps and PendingRemovalSince they
// share with the write side must never be modified), and updated is its
// LastUpdated. e derives the context of the records the event touched; the
// rest comes from the current document (see projectDocument), which must be
// a projected one: an upserted document's fragments carry no derivation. The
// host is rendered only when a read asks for it.
func (ix *Index) Project(id string, ip netip.Addr, updated time.Time, svcs []entity.Service,
	changed entity.ServiceKey, e *enrich.Enricher) {
	p := ix.part(id)
	p.mu.RLock()
	prev := p.docs[id]
	p.mu.RUnlock()
	p.replace(id, projectDocument(id, ip, updated, svcs, changed, e, prev))
}

// replace posts doc as id's document, diffing the postings against whatever
// document is current by now.
func (p *indexPart) replace(id string, doc *document) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen.Add(1)
	cur := p.docs[id]
	if cur != nil {
		doc.local = cur.local
	} else {
		doc.local = p.localID(id)
		p.live = insertU32(p.live, doc.local)
	}
	p.repost(doc.local, cur, doc)
	p.byLocal[doc.local] = doc
	p.docs[id] = doc
}

// repost moves local document lid's postings from cur's fragments to next's
// (either may be nil). A fragment both share is left alone. A fragment only
// cur has is unposted, except for the entries next still holds; a fragment
// only next has is posted (posting is idempotent). An entry that the
// fragment's counterpart in the other version (the same host-level group,
// or the same slot) holds unchanged is neither unposted nor posted again,
// so replacing a fragment moves only the postings of what changed in it.
// Caller holds the write lock.
func (p *indexPart) repost(lid uint32, cur, next *document) {
	if cur != nil {
		for j, f := range cur.frags {
			if next.hasFragment(f) {
				continue
			}
			g := next.counterpart(j, f)
			// Host fields and service fields never share a name, so only
			// fragments of f's own kind can still hold its entries.
			var others []*fragment
			if next != nil && j < firstServiceFrag {
				others = next.frags[:firstServiceFrag]
			} else if next != nil {
				others = next.frags[firstServiceFrag:]
			}
			for i := range f.entries {
				if !g.holds(&f.entries[i]) {
					p.unpost(lid, &f.entries[i], others)
				}
			}
		}
	}
	if next != nil {
		for j, g := range next.frags {
			if cur.hasFragment(g) {
				continue
			}
			f := cur.counterpart(j, g)
			for i := range g.entries {
				if !f.holds(&g.entries[i]) {
					p.post(lid, &g.entries[i])
				}
			}
		}
	}
}

// counterpart returns d's fragment in the place f holds in another version
// of the document, frags[j]: the same host-level group, or the same slot;
// nil when d has none.
func (d *document) counterpart(j int, f *fragment) *fragment {
	if d == nil {
		return nil
	}
	if j < firstServiceFrag {
		return d.frags[j]
	}
	for _, g := range d.frags[firstServiceFrag:] {
		if g.key == f.key {
			return g
		}
	}
	return nil
}

// holds reports whether f has an entry indexing what e indexes.
func (f *fragment) holds(e *entry) bool {
	if f == nil {
		return false
	}
	for i := range f.entries {
		o := &f.entries[i]
		if o.field == e.field && o.isNum == e.isNum && o.num == e.num && slices.Equal(o.toks, e.toks) {
			return true
		}
	}
	return false
}

func (p *indexPart) post(lid uint32, e *entry) {
	byTok := p.inverted[e.field]
	if byTok == nil {
		byTok = make(map[string][]uint32)
		p.inverted[e.field] = byTok
	}
	for _, tok := range e.toks {
		byTok[tok] = insertU32(byTok[tok], lid)
	}
	if e.isNum {
		p.numeric[e.field] = p.numeric[e.field].insert(numEntry{val: e.num, doc: lid})
	}
}

// unpost withdraws one entry's postings for lid, keeping any that the next
// version's fragments others still hold.
func (p *indexPart) unpost(lid uint32, e *entry, others []*fragment) {
	if byTok := p.inverted[e.field]; byTok != nil {
		for _, tok := range e.toks {
			if holdsToken(others, e.field, tok) {
				continue
			}
			if list := removeU32(byTok[tok], lid); len(list) == 0 {
				delete(byTok, tok)
			} else {
				byTok[tok] = list
			}
		}
		if len(byTok) == 0 {
			delete(p.inverted, e.field)
		}
	}
	if e.isNum && !holdsNumber(others, e.field, e.num) {
		if col := p.numeric[e.field].remove(numEntry{val: e.num, doc: lid}); len(col) == 0 {
			delete(p.numeric, e.field)
		} else {
			p.numeric[e.field] = col
		}
	}
}

// Remove deletes an entity from the index.
func (ix *Index) Remove(id string) {
	p := ix.part(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	if doc := p.docs[id]; doc != nil {
		p.gen.Add(1)
		p.removeLocked(doc)
	}
}

// removeLocked unposts a document from its fragments. Caller holds the
// write lock.
func (p *indexPart) removeLocked(doc *document) {
	p.repost(doc.local, doc, nil)
	p.live = removeU32(p.live, doc.local)
	p.byLocal[doc.local] = nil
	delete(p.docs, doc.id)
}

// DropPartition removes every document in partition i — the degraded-mode
// purge for a quarantined journal partition. The index and journal stripe by
// the same shard hash over the same partition count, so index partition i
// holds exactly the entities of journal partition i.
func (ix *Index) DropPartition(i int) {
	if i < 0 || i >= len(ix.parts) {
		return
	}
	p := ix.parts[i]
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.docs) == 0 {
		return
	}
	p.gen.Add(1)
	for _, doc := range p.docs {
		p.removeLocked(doc)
	}
}

// Len reports the number of indexed entities.
func (ix *Index) Len() int {
	n := 0
	for _, p := range ix.parts {
		p.mu.RLock()
		n += len(p.docs)
		p.mu.RUnlock()
	}
	return n
}

// Has reports whether an entity is indexed.
func (ix *Index) Has(id string) bool {
	p := ix.part(id)
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.docs[id] != nil
}

// Host returns the indexed snapshot of an entity.
func (ix *Index) Host(id string) *entity.Host {
	p := ix.part(id)
	p.mu.RLock()
	defer p.mu.RUnlock()
	if d := p.docs[id]; d != nil {
		return d.record().Clone()
	}
	return nil
}

// HostsJSON returns the canonical JSON of the indexed hosts for an entity-ID
// list — json.Marshal of each host, the bytes search and export emit — in
// list order, skipping IDs no longer indexed. Documents are fetched under one
// read lock per partition and rendered outside it, each at most once per
// version: the returned slices are shared by every reader and must not be
// modified.
func (ix *Index) HostsJSON(ids []string) ([]json.RawMessage, error) {
	at := make([]int, len(ids))
	for k, id := range ids {
		at[k] = shard.Of(id, len(ix.parts))
	}
	docs := make([]*document, len(ids))
	for i, p := range ix.parts {
		p.mu.RLock()
		for k, id := range ids {
			if at[k] == i {
				docs[k] = p.docs[id]
			}
		}
		p.mu.RUnlock()
	}
	out := make([]json.RawMessage, 0, len(ids))
	for _, d := range docs {
		if d == nil {
			continue
		}
		b, err := d.render()
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
