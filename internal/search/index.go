// Package search implements the interactive search interface of paper §5.3:
// an inverted index over the current state of every entity, queried with a
// Lucene-like language (field references, boolean operators, phrases,
// wildcards, numeric ranges). It stands in for the Elasticsearch tier.
//
// The execution engine is built around compressed integer postings: each
// partition keeps a dense docID dictionary (entity ID → uint32) and stores
// every posting list as a sorted []uint32, so boolean operators are linear
// merges; numeric fields are sorted (value, doc) columns, so range queries
// are two binary searches. A document is a host fragment plus one immutable
// fragment per active service, each holding its lowercased values and token
// lists, so phrase matching never re-lowercases and a reindex touches only
// the fragments that changed. A query planner (planner.go) and a
// generation-stamped query cache (cache.go) sit on top. See DESIGN.md, "Read
// path".
package search

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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
// come from. It is immutable once posted: Upsert replaces a document, never
// edits it, which is what lets it carry its host's wire bytes without their
// going stale and lets the next version share its unchanged fragments.
type document struct {
	id    string
	local uint32
	// host is the record the caller handed to Upsert; the index owns it.
	host *entity.Host
	// frags[0] indexes the host-level fields; frags[1:] one active service
	// each, in no particular order (postings are sets).
	frags []*fragment
	// rendered is json.Marshal(host), set by the first read that emits it
	// (see render) — not at Upsert, because most documents are replaced
	// before anyone reads them.
	rendered atomic.Pointer[[]byte]
}

// fragment is the indexed form of one active service, or of a host's
// host-level fields. It is built once and shared, unchanged, by every later
// version of the document whose service (or host-level fields) is equal.
type fragment struct {
	key     entity.ServiceKey // the service's slot; zero for the host fragment
	entries []entry
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
	b, err := json.Marshal(d.host)
	if err != nil {
		return nil, err
	}
	d.rendered.Store(&b)
	return b, nil
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
	if digits == "" || strings.Trim(digits, "0123456789") != "" {
		return 0, false
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

// hostFragment indexes a host's host-level fields — the document schema of
// the search tier, together with serviceFragment.
func hostFragment(id string, h *entity.Host) *fragment {
	b := newFragBuilder(entity.ServiceKey{}, 6+len(h.Labels)+len(h.Vulns)+4*len(h.Software))
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
	for _, l := range h.Labels {
		b.add("labels", l)
	}
	for _, v := range h.Vulns {
		b.add("vulns", v)
	}
	for _, sw := range h.Software {
		b.add("software.product", sw.Product)
		b.add("software.vendor", sw.Vendor)
		b.add("software.version", sw.Version)
		b.add("software.cpe", sw.CPE())
	}
	return b.f
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
		b.add("services."+k, v)
	}
	return b.f
}

// sameHostFields reports whether two versions of a host agree on every field
// the host fragment indexes.
func sameHostFields(a, b *entity.Host) bool {
	return (a.Location == nil) == (b.Location == nil) && (a.Location == nil || *a.Location == *b.Location) &&
		(a.AS == nil) == (b.AS == nil) && (a.AS == nil || *a.AS == *b.AS) &&
		slices.Equal(a.Labels, b.Labels) && slices.Equal(a.Vulns, b.Vulns) && slices.Equal(a.Software, b.Software)
}

// newDocument builds the document for h, taking from prev (the entity's
// current document, or nil) every fragment whose source is unchanged: the
// host fragment when the host-level fields are equal, and a service's
// fragment when ConfigEqual, which covers every indexed service field.
func newDocument(id string, h *entity.Host, prev *document) *document {
	d := &document{id: id, host: h, frags: make([]*fragment, 1, 1+len(h.Services))}
	if prev != nil && sameHostFields(prev.host, h) {
		d.frags[0] = prev.frags[0]
	} else {
		d.frags[0] = hostFragment(id, h)
	}
	for _, s := range h.Services {
		if s.PendingRemovalSince == nil {
			d.frags = append(d.frags, prev.fragmentFor(s))
		}
	}
	return d
}

// fragmentFor returns d's fragment for s's slot if s is unchanged since, else
// a new one.
func (d *document) fragmentFor(s *entity.Service) *fragment {
	if d != nil {
		key := s.Key()
		for _, f := range d.frags[1:] {
			if f.key == key {
				if s.ConfigEqual(d.host.Service(key)) {
					return f
				}
				break
			}
		}
	}
	return serviceFragment(s)
}

// hasFragment reports whether d is built on f itself (not on an equal copy).
func (d *document) hasFragment(f *fragment) bool {
	return d != nil && slices.Contains(d.frags, f)
}

// holdsToken reports whether any fragment of d posts tok under field.
func (d *document) holdsToken(field, tok string) bool {
	return d != nil && d.anyEntry(func(e *entry) bool { return e.field == field && slices.Contains(e.toks, tok) })
}

// holdsNumber reports whether any fragment of d enters n in field's column.
func (d *document) holdsNumber(field string, n int64) bool {
	return d != nil && d.anyEntry(func(e *entry) bool { return e.isNum && e.num == n && e.field == field })
}

func (d *document) anyEntry(match func(e *entry) bool) bool {
	for _, f := range d.frags {
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

// Upsert indexes (or reindexes) a host's current state. The index keeps h as
// the document's host — it is rendered and compared against later versions —
// so the caller must not modify h afterwards.
//
// The new document reuses every fragment of the current one whose source is
// unchanged; fragments are built outside the partition lock, and the
// postings are diffed under it against whatever document is current by then.
func (ix *Index) Upsert(h *entity.Host) {
	id := h.ID()
	p := ix.part(id)
	p.mu.RLock()
	prev := p.docs[id]
	p.mu.RUnlock()
	doc := newDocument(id, h, prev)
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
// cur has is unposted, except for the entries next still holds elsewhere;
// a fragment only next has is posted (posting is idempotent). Caller holds
// the write lock.
func (p *indexPart) repost(lid uint32, cur, next *document) {
	if cur != nil {
		for _, f := range cur.frags {
			if !next.hasFragment(f) {
				for i := range f.entries {
					p.unpost(lid, &f.entries[i], next)
				}
			}
		}
	}
	if next != nil {
		for _, f := range next.frags {
			if !cur.hasFragment(f) {
				for i := range f.entries {
					p.post(lid, &f.entries[i])
				}
			}
		}
	}
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

// unpost withdraws one entry's postings for lid, keeping any that next
// still holds.
func (p *indexPart) unpost(lid uint32, e *entry, next *document) {
	if byTok := p.inverted[e.field]; byTok != nil {
		for _, tok := range e.toks {
			if next.holdsToken(e.field, tok) {
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
	if e.isNum && !next.holdsNumber(e.field, e.num) {
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
		return d.host.Clone()
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
